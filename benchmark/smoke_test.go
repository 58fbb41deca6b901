package main

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// TestSmoke boots the real minerule-serve binary and runs every workload
// for a fraction of a second, traced, with all output checks on. It is
// short enough to stay in under -short.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, cl: newCleanup(), instances: 1}
	defer h.cl.run()
	if h.bin, err = buildServer(root); err != nil {
		t.Fatal(err)
	}
	if h.tmp, err = os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), "smoke-"); err != nil {
		t.Fatal(err)
	}
	h.cl.addDir(h.tmp)

	for _, w := range workloads {
		rep, err := h.runWorkload(w, 42, 600*time.Millisecond, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.failed != 0 || rep.attempted < 20 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, rep.attempted, rep.failed, rep.notes)
		}
		for _, m := range endToEnd {
			if s, ok := rep.e2e[m.name]; !ok || s.value <= 0 || s.n == 0 {
				t.Errorf("%s: end-to-end metric %s = %+v; every workload must report every one, never 0", w.name, m.name, s)
			}
		}
		for _, m := range perLayer {
			if _, ok := rep.layer[m.name]; !ok && !(m.name == "engine.recovery_ms" && !w.durable) {
				t.Errorf("%s: per-layer metric %s missing from the traced run", w.name, m.name)
			}
		}
		if w.durable {
			if rep.layer["wal.fsyncs_per_op"].value <= 0 || rep.layer["engine.recovery_ms"].value <= 0 {
				t.Errorf("durable run shows no WAL activity: %+v", rep.layer)
			}
		} else if rep.layer["wal.fsyncs_per_op"].value != 0 {
			t.Errorf("%s: in-memory server fsynced", w.name)
		}
	}

	// A broken expectation must surface as failed operations.
	paper := *workloadByName("paper_small")
	paper.want = append([]rule{{"{ski_pants}", "{col_shirts}", 0.5, 1}}, paper.want...)
	if _, err := h.runWorkload(&paper, 42, 100*time.Millisecond, true); err == nil {
		t.Error("expecting four rules on paper_small went unnoticed")
	}
}

// TestCleanup: a child registered with the harness is killed
// and its directory removed by cleanup.run, whichever path reaches it.
func TestCleanup(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	cl := newCleanup()
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), "cleanup-")
	if err != nil {
		t.Fatal(err)
	}
	cl.addDir(dir)
	srv, err := startServer(cl, bin, filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.cmd.Process.Pid
	func() {
		defer func() {
			recover()
			cl.run()
		}()
		panic("a failing run")
	}()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived: %v", err)
	}
	if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid), "status")); !os.IsNotExist(err) {
		t.Errorf("child %d survived", pid)
	}
	if _, err := srv.scrape(); err == nil {
		t.Error("killed server still answers /metrics")
	}
}
