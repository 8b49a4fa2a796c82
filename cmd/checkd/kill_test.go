package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestHelperCheckd is not a test: re-exec'd by the kill tests as a real
// checkd process, so the driver can SIGKILL it with no chance of a
// graceful-shutdown snapshot softening the crash.
func TestHelperCheckd(t *testing.T) {
	if os.Getenv("CHECKD_HELPER") != "1" {
		t.Skip("helper process only")
	}
	if err := run(strings.Fields(os.Getenv("CHECKD_ARGS")), os.Stdout, nil); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// startCheckdProcess launches this test binary as a checkd subprocess and
// returns its base URL plus a kill function that SIGKILLs it and reaps.
func startCheckdProcess(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperCheckd$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CHECKD_HELPER=1",
		"CHECKD_ARGS="+strings.Join(append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, args...), " "))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := func() {
		_ = cmd.Process.Kill() // SIGKILL: no deferred Close, no final snapshot
		_ = cmd.Wait()
	}

	addrRE := regexp.MustCompile(`listening on (\S+)`)
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
				return
			}
		}
	}()
	select {
	case addr := <-addrc:
		return "http://" + addr, kill
	case <-time.After(10 * time.Second):
		kill()
		t.Fatal("helper checkd never announced its address")
		return "", nil
	}
}

func postRingsim(t *testing.T, base string) map[string]any {
	t.Helper()
	const req = `{"family":"dijkstra3","procs":5,"seed":11,"runs":3,"steps":5000}`
	resp, err := http.Post(base+"/v1/ringsim", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	return m
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("checkd never became ready")
}

// TestKillBetweenSnapshotsLosesVerdictWithoutJournal pins the race
// window the journal exists to close: with only interval snapshots (set
// far apart), a SIGKILL between them loses every verdict computed since
// the last snapshot, and the restarted checkd recomputes.
func TestKillBetweenSnapshotsLosesVerdictWithoutJournal(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.snap")
	base, kill := startCheckdProcess(t,
		"-cache-path", cachePath, "-cache-snapshot-interval", "1h")
	if m := postRingsim(t, base); m["cached"] != false {
		t.Fatalf("first submission cannot be cached: %v", m)
	}
	kill()

	base2, shutdown := startCheckd(t,
		"-cache-path", cachePath, "-cache-snapshot-interval", "1h")
	defer shutdown()
	if m := postRingsim(t, base2); m["cached"] != false {
		t.Fatalf("verdict survived a kill between snapshots without a journal — the control is broken: %v", m)
	}
}

// TestKillBetweenSnapshotsReplaysFromJournal is the fix: same SIGKILL
// between snapshots, but with -journal-path the verdict was journaled
// durably before the 200 response, so the restarted checkd replays it
// and serves the identical request as a cache hit.
func TestKillBetweenSnapshotsReplaysFromJournal(t *testing.T) {
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "cache.snap")
	journalPath := filepath.Join(dir, "journal.wal")
	args := []string{
		"-cache-path", cachePath, "-cache-snapshot-interval", "1h",
		"-journal-path", journalPath,
	}
	base, kill := startCheckdProcess(t, args...)
	if m := postRingsim(t, base); m["cached"] != false {
		t.Fatalf("first submission cannot be cached: %v", m)
	}
	kill()

	base2, shutdown := startCheckd(t, args...)
	defer shutdown()
	waitReady(t, base2) // replay finished before checkd started listening
	if m := postRingsim(t, base2); m["cached"] != true {
		t.Fatalf("restarted checkd recomputed instead of replaying the journaled verdict: %v", m)
	}
}

// postRingsimSeed submits one small ringsim request whose cache key is
// unique to seed, returning the decoded response.
func postRingsimSeed(t *testing.T, base string, seed int) map[string]any {
	t.Helper()
	req := fmt.Sprintf(`{"family":"dijkstra3","procs":3,"seed":%d,"runs":1,"steps":2000}`, seed)
	resp, err := http.Post(base+"/v1/ringsim", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed %d: status %d: %v", seed, resp.StatusCode, m)
	}
	return m
}

// retentionCompactions reads journal compaction and shed counters from
// /metrics (0, 0 when the section is absent).
func retentionCompactions(t *testing.T, base string) (compactions, shed int64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Journal *struct {
			Retention *struct {
				Compactions int64 `json:"compactions"`
				Shed        int64 `json:"journal_shed_total"`
			} `json:"retention"`
		} `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Journal == nil || snap.Journal.Retention == nil {
		return 0, 0
	}
	return snap.Journal.Retention.Compactions, snap.Journal.Retention.Shed
}

// TestKillMidCompactionLosesNoAckedVerdict is the retention acceptance
// crash test: a checkd under a journal disk budget, with the retention
// loop snapshotting and compacting every 25ms while distinct verdicts
// stream in, is SIGKILLed while compactions are actively rewriting the
// journal file. The restarted process — old journal bytes or new, plus
// whatever cache snapshot landed — must serve every acknowledged
// verdict as a cache hit: compaction's atomic swap never strands an
// acked verdict between the snapshot and the journal.
func TestKillMidCompactionLosesNoAckedVerdict(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-cache-path", filepath.Join(dir, "cache.snap"),
		"-cache-snapshot-interval", "1h", // retention loop drives snapshots, not this
		"-journal-path", filepath.Join(dir, "journal.wal"),
		"-journal-max-bytes", "65536",
		"-journal-checkpoint-interval", "25ms",
	}
	base, kill := startCheckdProcess(t, args...)

	// Stream distinct verdicts until several compactions have landed, so
	// the SIGKILL falls into an active snapshot/compact/rewrite cycle.
	acked := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := postRingsimSeed(t, base, acked); m["cached"] != false {
			t.Fatalf("seed %d: first submission served cached: %v", acked, m)
		}
		acked++
		if c, _ := retentionCompactions(t, base); c >= 3 && acked >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no compactions observed within the deadline")
		}
	}
	kill() // SIGKILL: no drain, no final snapshot, compaction mid-flight

	base2, shutdown := startCheckd(t, args...)
	defer shutdown()
	waitReady(t, base2)
	for seed := 0; seed < acked; seed++ {
		if m := postRingsimSeed(t, base2, seed); m["cached"] != true {
			t.Fatalf("acked verdict for seed %d lost across kill-mid-compaction: %v", seed, m)
		}
	}
}

// TestRunRejectsBadRetentionFlags: nonsense retention settings are
// rejected at flag-validation time with errors naming the flag.
func TestRunRejectsBadRetentionFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-journal-max-bytes", "-1"}, "-journal-max-bytes"},
		{[]string{"-journal-max-bytes", "1024"}, "group-commit batch"},
		{[]string{"-journal-max-bytes", "65536", "-journal-checkpoint-interval", "0s"}, "-journal-checkpoint-interval"},
		{[]string{"-journal-max-bytes", "65536", "-cache-path", "c.snap"}, "-journal-path"},
		{[]string{"-journal-max-bytes", "65536", "-journal-path", "j.wal"}, "-cache-path"},
	}
	for _, tc := range cases {
		var out syncBuffer
		err := run(tc.args, &out, nil)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("args %v: err %v does not name %q", tc.args, err, tc.wantSub)
		}
	}
}

func TestRunRejectsJournalWithFleet(t *testing.T) {
	var out syncBuffer
	err := run([]string{"-fleet", "2", "-journal-path", "j.wal"}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("want -journal-path/-fleet conflict error, got %v", err)
	}
}
