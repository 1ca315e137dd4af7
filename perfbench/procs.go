package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet owns the daemons a run starts and stops every one of them.
type procSet struct {
	logDir string
	mu     sync.Mutex
	live   []*daemon
}

// daemon is one started ssrec-server or ssrec-shardd process.
type daemon struct {
	name      string
	addr      string // serving address
	pprofAddr string
	cmd       *exec.Cmd
	logPath   string
	done      chan struct{}
}

// start launches bin with args plus -addr, -pprof-addr and a short drain
// window on fresh loopback ports.
func (ps *procSet) start(name, bin string, args ...string) (*daemon, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		name:      name,
		addr:      fmt.Sprintf("127.0.0.1:%d", ports[0]),
		pprofAddr: fmt.Sprintf("127.0.0.1:%d", ports[1]),
		logPath:   filepath.Join(ps.logDir, name+".log"),
		done:      make(chan struct{}),
	}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", d.addr, "-pprof-addr", d.pprofAddr, "-drain-timeout", "2s")
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The kernel stops the daemon if this process dies without cleaning up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status is irrelevant once stopped
		logf.Close()
		close(d.done)
	}()
	ps.mu.Lock()
	ps.live = append(ps.live, d)
	ps.mu.Unlock()
	return d, nil
}

// waitReady polls path on the daemon until it answers 200.
func (d *daemon) waitReady(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during boot; log tail:\n%s", d.name, d.logTail())
		default:
		}
		resp, err := http.Get("http://" + d.addr + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready on %s after %v; log tail:\n%s", d.name, path, timeout, d.logTail())
}

func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// stop asks the daemon to drain and exit, killing it if it does not, and
// waits until it has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // it may have exited already
		<-d.done
	}
}

// stop stops the given daemons, in parallel.
func (ps *procSet) stop(ds ...*daemon) {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	live := ps.live[:0]
	for _, d := range ps.live {
		select {
		case <-d.done:
		default:
			live = append(live, d)
		}
	}
	ps.live = live
}

func (ps *procSet) stopAll() {
	ps.mu.Lock()
	all := append([]*daemon(nil), ps.live...)
	ps.mu.Unlock()
	ps.stop(all...)
}

// liveHeapBytes asks the daemon for a collection and its live heap, via
// the heap profile of its pprof listener (gc=1 collects first).
func (d *daemon) liveHeapBytes() (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.pprofAddr+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s heap: %w", d.name, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s heap: no HeapAlloc line in the heap profile", d.name)
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}
