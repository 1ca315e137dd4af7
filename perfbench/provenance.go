package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance says what a result is: which code, which toolchain, how many
// cores, which fixture, how long the run, and how many samples stand
// behind each percentile.
func (r *runner) provenance() map[string]any {
	return map[string]any{
		"workload":      r.workload,
		"trace":         r.trace,
		"commit":        gitCommit(r.root),
		"source_sha256": sourceDigest(r.root),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"fixture": map[string]any{
			"seed":      r.seed,
			"generator": "dataset.YTubeConfig(1)",
			"consumers": fixtureConsumers,
			"producers": fixtureProducers,
			"steps":     fixtureSteps,
			"k":         queryK,
			"batch":     batchSize,
		},
		"run": map[string]any{
			"seconds":               r.seconds.Seconds(),
			"warm_up_s":             r.warm.Seconds(),
			"setup_repetitions":     len(r.setups),
			"ingest_interactions_s": ingestBatchesPerSec * batchSize,
			"fleet_interactions_s":  fleetBatchesPerSec * batchSize,
		},
		"samples": r.samples,
	}
}

// gitCommit names the checked-out commit, or "unknown" when root is not a
// git checkout (git is not asked, so it cannot find an enclosing one).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources, module files and BENCHMARK.json of
// the checkout, so a result names its code even where git does not.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "BENCHMARK.json" && name != "run.sh" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
