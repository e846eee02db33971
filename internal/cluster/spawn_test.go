package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// runAgentChild is the agent side of the SpawnAgents tests: it appends its
// pid to the file named by args[0] and serves on addr. With args[1] ==
// "fail-second" the second child to start exits before announcing, which
// is how the tests make a spawn fail midway.
func runAgentChild(addr string, args []string) {
	f, err := os.OpenFile(args[0], os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Fprintln(f, os.Getpid())
	f.Close()
	if len(args) > 1 && args[1] == "fail-second" && len(childPids(args[0])) == 2 {
		return
	}
	if err := ListenAndServe(addr, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// childPids reads the pid file runAgentChild appends to.
func childPids(path string) []int {
	data, _ := os.ReadFile(path)
	var pids []int
	for _, f := range strings.Fields(string(data)) {
		if pid, err := strconv.Atoi(f); err == nil {
			pids = append(pids, pid)
		}
	}
	return pids
}

// assertReaped fails unless exactly want children started and none of
// them is still running (or left unreaped).
func assertReaped(t *testing.T, pidFile string, want int) {
	t.Helper()
	pids := childPids(pidFile)
	if len(pids) != want {
		t.Fatalf("%d agent children started, want %d", len(pids), want)
	}
	for _, pid := range pids {
		p, err := os.FindProcess(pid)
		if err != nil {
			continue
		}
		if err := p.Signal(syscall.Signal(0)); err == nil || !errors.Is(err, os.ErrProcessDone) && !errors.Is(err, syscall.ESRCH) {
			t.Errorf("agent child %d still running after stop (signal 0: %v)", pid, err)
		}
	}
}

// The real multi-process path: this test binary is re-exec'd as agents
// through SpawnAgents and, with the local agent disabled, the spawned
// fleet alone must reproduce the sequential tables byte-for-byte. stop()
// must leave no child behind.
func TestSpawnAgentsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec test")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pidFile := filepath.Join(t.TempDir(), "pids")
	addrs, stop, err := SpawnAgents(self, 2, pidFile)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, id := range []string{"T1", "F3", "S1"} {
		e, wantRender, wantCSV := seqRender(t, id)
		c := &Coordinator{Agents: addrs, Quick: true, DisableLocal: true}
		res, err := c.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := res.Table.Render(); got != wantRender {
			t.Errorf("%s: spawned-agent Render differs from sequential:\n--- agents\n%s--- sequential\n%s",
				id, got, wantRender)
		}
		if got := res.Table.CSV(); got != wantCSV {
			t.Errorf("%s: spawned-agent CSV differs from sequential", id)
		}
		for _, a := range res.Agents {
			if a.Addr == LocalAgentName || a.Failed {
				t.Errorf("%s: unexpected agent stats %+v", id, a)
			}
		}
	}
	stop()
	assertReaped(t, pidFile, 2)
}

// A spawn that fails midway must stop the agents it already started.
func TestSpawnAgentsFailureStopsStarted(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec test")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pidFile := filepath.Join(t.TempDir(), "pids")
	addrs, stop, err := SpawnAgents(self, 3, pidFile, "fail-second")
	if err == nil {
		stop()
		t.Fatalf("spawn succeeded with addresses %v despite a failing second agent", addrs)
	}
	assertReaped(t, pidFile, 2)
}
