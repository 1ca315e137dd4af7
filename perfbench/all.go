package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// runAll runs every workload, listed or not, each in its own process,
// untraced and, with trace, traced as well, and prints one table of every
// metric by workload.
func runAll(seed int64, seconds int, trace bool, root, bin string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []string{"0"}
	if trace {
		modes = append(modes, "1")
	}
	type row struct {
		workload, mode, metric, unit string
		value                        float64
	}
	var rows []row
	var failed []string
	for _, w := range allWorkloads() {
		for _, mode := range modes {
			var out bytes.Buffer
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", mode, "-root", root, "-bin", bin)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			os.Stdout.Write(out.Bytes())
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultJSON
			if runErr != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || !res.Correct {
				failed = append(failed, fmt.Sprintf("%s (trace %s)", w.Name, mode))
				continue
			}
			for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
				m := res.Metrics[name]
				rows = append(rows, row{w.Name, mode, name, m.Unit, m.Value})
			}
		}
	}
	fmt.Println("summary:")
	for _, r := range rows {
		fmt.Printf("  %-13s trace=%s %-40s %16.6g %s\n", r.workload, r.mode, r.metric, r.value, r.unit)
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
