package cluster

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
)

// SpawnAgents starts n loopback agent subprocesses, each `bin -agent
// 127.0.0.1:0 args…`, and returns the addresses they announced (the
// "cluster agent listening <addr>" line of ListenAndServe) together with a
// stop function that kills and reaps every child. Agents start one after
// another; if any fails to start or announce, the ones already running are
// stopped before the error is returned. Child stderr is passed through.
func SpawnAgents(bin string, n int, args ...string) (addrs []string, stop func(), err error) {
	var cmds []*exec.Cmd
	stop = func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
		cmds = nil
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, append([]string{"-agent", "127.0.0.1:0"}, args...)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("cluster: spawn agent %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
		line, err := bufio.NewReader(stdout).ReadString('\n')
		var addr string
		if err == nil {
			_, err = fmt.Sscanf(line, "cluster agent listening %s", &addr)
		}
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("cluster: spawn agent %d: no announcement (got %q): %v", i, line, err)
		}
		addrs = append(addrs, addr)
	}
	return addrs, stop, nil
}
