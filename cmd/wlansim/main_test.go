package main

import (
	"bytes"
	"strings"
	"testing"
)

// Every bad flag value must exit 2 with a message instead of panicking or
// running with a silently substituted value.
func TestBadFlagsExit2(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the message
	}{
		{[]string{"-rate", "bogus"}, "unknown rate adaptation"},
		{[]string{"-fading", "weird"}, "unknown fading model"},
		{[]string{"-mode", "802.11q"}, "unknown mode"},
		{[]string{"-n", "-3"}, "-n -3"},
		{[]string{"-fading", "rician:abc"}, "bad Rician K"},
		{[]string{"-rate", "fixed:99"}, "bad rate spec"},
		{[]string{"-payload", "0"}, "-payload 0"},
		{[]string{"-payload", "2305"}, "-payload 2305"},
		{[]string{"-distance", "0"}, "-distance 0"},
		{[]string{"-distance", "NaN"}, "-distance NaN"},
		{[]string{"-duration", "0s"}, "-duration 0s"},
		{[]string{"-topology", "mesh"}, "unknown topology"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: message %q does not mention %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed results despite bad input:\n%s", c.args, stdout.String())
		}
	}
}

// A good invocation still runs and prints the results table.
func TestGoodFlagsRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-n", "2", "-fading", "rician:3", "-rate", "fixed:1", "-payload", "20", "-duration", "50ms"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "aggregate:") {
		t.Errorf("no aggregate line in output:\n%s", stdout.String())
	}
}
