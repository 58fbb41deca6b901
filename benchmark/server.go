package main

// Lifecycle of the minerule-serve child process: build once, pick free
// ports, boot, wait for /healthz, read /proc/<pid>, kill. Everything
// the harness writes lives under <repo>/.bench_build, so a run touches
// nothing outside its checkout.

import (
	"bytes"
	"errors"
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

// repoRoot walks up from the working directory to the go.mod that
// declares "module minerule" (the benchmark's own go.mod is skipped).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module minerule\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no enclosing 'module minerule' go.mod; run from the repository checkout")
		}
		dir = parent
	}
}

// buildServer compiles cmd/minerule-serve into .bench_build/bin. With a
// warm cache this is a staleness check; it is never part of setup_s.
// run.sh points the Go toolchain's cache and temp directories into
// .bench_build; the child go command inherits that.
func buildServer(root string) (string, error) {
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin", "minerule-serve")
	for _, d := range []string{filepath.Join(build, "bin"), filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return "", err
		}
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/minerule-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build minerule-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// cleanup is the set of children and directories every exit path —
// return, error, signal, panic — must kill and remove.
type cleanup struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]bool
	dirs  map[string]bool
	done  bool // run has been called: whatever is added now is cleaned at once
}

func newCleanup() *cleanup {
	return &cleanup{procs: map[*exec.Cmd]bool{}, dirs: map[string]bool{}}
}

func (c *cleanup) addProc(p *exec.Cmd) {
	c.mu.Lock()
	c.procs[p] = true
	done := c.done
	c.mu.Unlock()
	if done {
		c.run()
	}
}

func (c *cleanup) addDir(d string) {
	c.mu.Lock()
	c.dirs[d] = true
	done := c.done
	c.mu.Unlock()
	if done {
		c.run()
	}
}

// run kills and reaps every live child and removes every directory. A
// signal handler may call it while the main goroutine is still starting
// things; those are cleaned as they are added.
func (c *cleanup) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	for p := range c.procs {
		p.Process.Kill()
		p.Wait()
		delete(c.procs, p)
	}
	for d := range c.dirs {
		os.RemoveAll(d)
		delete(c.dirs, d)
	}
}

// child is one running minerule-serve.
type child struct {
	cmd     *exec.Cmd
	addr    string // wire protocol
	metrics string // /metrics and /healthz
	stderr  *bytes.Buffer
	cl      *cleanup
}

// freePorts reserves n distinct loopback ports by listening on :0 and
// closing. The server echoes -listen verbatim, so it cannot pick its own.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startServer boots the binary (durable when dbDir is set) and returns
// once /healthz answers.
func startServer(cl *cleanup, bin, dbDir string) (*child, error) {
	addrs, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", addrs[0], "-metrics", addrs[1]}
	if dbDir != "" {
		args = append(args, "-db", dbDir)
	}
	c := &child{cmd: exec.Command(bin, args...), addr: addrs[0], metrics: addrs[1], stderr: &bytes.Buffer{}, cl: cl}
	c.cmd.Stderr = c.stderr
	// Should the harness itself be SIGKILLed, the kernel takes the child along.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	cl.addProc(c.cmd)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if resp, err := http.Get("http://" + c.metrics + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				// The sidecar binds before the wire listener; wait for that too.
				if nc, err := net.Dial("tcp", c.addr); err == nil {
					nc.Close()
					return c, nil
				}
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("minerule-serve did not become healthy: %s", c.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill SIGKILLs the child and waits for it: no drain, no final fsync,
// which is what the recovery check needs.
func (c *child) kill() {
	c.cl.mu.Lock()
	live := c.cl.procs[c.cmd]
	delete(c.cl.procs, c.cmd)
	c.cl.mu.Unlock()
	if live {
		c.cmd.Process.Signal(syscall.SIGKILL)
		c.cmd.Wait()
	}
}

// scrape fetches /metrics.
func (c *child) scrape() (promSample, error) {
	resp, err := http.Get("http://" + c.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (c *child) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}
