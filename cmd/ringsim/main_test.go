package main

import (
	"strings"
	"testing"
)

func TestRunAggregate(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-protocol", "dijkstra3", "-p", "6", "-runs", "5", "-faults", "3", "-steps", "10000"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "converged 5/5") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunAllProtocolsAndDaemons(t *testing.T) {
	for _, proto := range []string{"dijkstra3", "dijkstra4", "kstate", "newthree"} {
		for _, daemon := range []string{"random", "roundrobin", "greedy"} {
			var b strings.Builder
			err := run([]string{"-protocol", proto, "-daemon", daemon,
				"-p", "5", "-runs", "2", "-steps", "20000"}, &b)
			if err != nil {
				t.Fatalf("%s/%s: %v", proto, daemon, err)
			}
		}
	}
}

func TestRunTrace(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-protocol", "kstate", "-p", "5", "-k", "5", "-trace", "-faults", "2", "-seed", "3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "legitimate after") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunLive(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-protocol", "dijkstra4", "-p", "5", "-live", "-faults", "2"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "converged=true") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunService(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-protocol", "dijkstra3", "-p", "6", "-service",
		"-faults", "3", "-steps", "2000", "-seed", "9"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "mutual-exclusion service") || !strings.Contains(out, "unsafe window") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-protocol", "nope"}, &b); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run([]string{"-daemon", "nope"}, &b); err == nil {
		t.Fatal("unknown daemon accepted")
	}
	if err := run([]string{"-bogus"}, &b); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A removed or misspelled subcommand must not fall through to a
	// default simulation run.
	if err := run([]string{"fleet", "-replicas", "3"}, &b); err == nil || !strings.Contains(err.Error(), `"fleet"`) {
		t.Fatalf("unknown subcommand: err = %v, want one naming \"fleet\"", err)
	}
}

// TestRunKStateModulusTooSmall: a kstate counter modulus of 1 passes
// the up-front -k ≥ 1 check but is no protocol; every subcommand that
// builds one returns an error naming -k instead of panicking.
func TestRunKStateModulusTooSmall(t *testing.T) {
	for _, sub := range [][]string{nil, {"cluster"}, {"chaos"}} {
		args := append(append([]string(nil), sub...), "-protocol", "kstate", "-p", "5", "-k", "1")
		var b strings.Builder
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), "-k 1") {
			t.Fatalf("run %v: err = %v, want an error naming -k 1", args, err)
		}
	}
}

// TestRunFlagValidation: every out-of-range numeric flag is rejected up
// front with an error that names the flag, before any simulation runs.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"too few processes", []string{"-p", "2"}, "-p"},
		{"negative processes", []string{"-p", "-5"}, "-p"},
		{"zero steps", []string{"-steps", "0"}, "-steps"},
		{"negative steps", []string{"-steps", "-100"}, "-steps"},
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative runs", []string{"-runs", "-1"}, "-runs"},
		{"negative faults", []string{"-faults", "-1"}, "-faults"},
		{"bad kstate domain", []string{"-protocol", "kstate", "-k", "-2"}, "-k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tc.args, &b)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("error %q does not name the flag %s", err, tc.flag)
			}
		})
	}
}

// TestRunCluster exercises the cluster subcommand end to end over the
// deterministic in-proc transport.
func TestRunCluster(t *testing.T) {
	var b strings.Builder
	err := run([]string{"cluster", "-protocol", "dijkstra3", "-p", "5", "-seed", "6",
		"-faults", "0", "-schedule", "corrupt@40:node=1,val=0", "-snapshot-every", "20"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"chan transport", "fault node=1", "stabilized", "converged=true", "stabilization: broken at step 40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunClusterJSON(t *testing.T) {
	var b strings.Builder
	err := run([]string{"cluster", "-p", "4", "-seed", "2", "-json"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"converged": true`) || !strings.Contains(out, `"events"`) {
		t.Fatalf("JSON output unexpected:\n%s", out)
	}
}

// TestRunClusterErrors: the subcommand validates its flags the same way
// the top-level command does.
func TestRunClusterErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"too few processes", []string{"cluster", "-p", "2"}, "-p"},
		{"zero steps", []string{"cluster", "-steps", "0"}, "-steps"},
		{"negative faults", []string{"cluster", "-faults", "-1"}, "-faults"},
		{"bad kstate domain", []string{"cluster", "-protocol", "kstate", "-k", "-1"}, "-k"},
		{"unknown transport", []string{"cluster", "-transport", "pigeon"}, "-transport"},
		{"bad schedule", []string{"cluster", "-schedule", "meteor@9"}, "-schedule"},
		{"unknown protocol", []string{"cluster", "-protocol", "nope"}, "unknown protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tc.args, &b)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
