package journal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// payload returns a JSON string payload of about n bytes.
func payload(n int) string { return `"` + strings.Repeat("v", n) + `"` }

// TestCheckpointTriggerFollowsCheckpointSize: the writer asks for a
// checkpoint once CheckpointFloor bytes are committed, once per request
// until the owner answers, and then not before the traffic since the
// answer exceeds the answered checkpoint's size.
func TestCheckpointTriggerFollowsCheckpointSize(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var asked atomic.Int64
	j.SetCheckpointWriter(func() { asked.Add(1) })

	const event = 4 << 10
	n := CheckpointFloor/event + 2
	for i := 0; i < n; i++ {
		mustAppend(t, j, KindVerdict, payload(event))
	}
	if got := asked.Load(); got != 1 {
		t.Fatalf("after %d bytes: %d checkpoint requests, want exactly 1", n*event, got)
	}
	// Nobody answered: more traffic does not ask again.
	mustAppend(t, j, KindVerdict, payload(event))
	if got := asked.Load(); got != 1 {
		t.Fatalf("unanswered request repeated: %d requests", got)
	}

	// A checkpoint twice the floor: the next request waits for twice the
	// floor of traffic.
	chunk := []byte(payload(CheckpointFloor / 2))
	first, err := j.AppendCheckpoint([][]byte{chunk, chunk, chunk, chunk})
	if err != nil {
		t.Fatal(err)
	}
	evs := j.Events(first)
	for i := 0; i < 4; i++ {
		if evs[i].Seq != first+uint64(i) || evs[i].Kind != KindCheckpoint {
			t.Fatalf("chunk %d: seq %d kind %s, want consecutive checkpoint chunks from %d", i, evs[i].Seq, evs[i].Kind, first)
		}
	}
	for i := 0; i < n; i++ {
		mustAppend(t, j, KindVerdict, payload(event))
	}
	if got := asked.Load(); got != 1 {
		t.Fatalf("asked again after one floor of traffic behind a 2-floor checkpoint: %d requests", got)
	}
	for i := 0; i < n+2; i++ {
		mustAppend(t, j, KindVerdict, payload(event))
	}
	if got := asked.Load(); got != 2 {
		t.Fatalf("after two floors of traffic: %d requests, want 2", got)
	}
}

// TestCheckpointPassesBackpressureGate: under a disk budget with no
// other coverage, the ladder's request is answered by an in-journal
// checkpoint, which only the writer can commit — the gate must let it
// through, and two checkpoints later the budget holds again.
func TestCheckpointPassesBackpressureGate(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{MaxBytes: MinMaxBytes, CheckpointInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	poke := make(chan struct{}, 1)
	j.SetCheckpointWriter(func() {
		select {
		case poke <- struct{}{}:
		default:
		}
	})
	stop := make(chan struct{})
	defer close(stop)
	var ckpts atomic.Int64
	go func() {
		var prev uint64
		for {
			select {
			case <-stop:
				return
			case <-poke:
			}
			head := j.LastSeq()
			if _, err := j.AppendCheckpoint([][]byte{[]byte(`{}`)}); err != nil {
				j.SetCovered(j.Covered())
				continue
			}
			ckpts.Add(1)
			j.SetCovered(prev)
			prev = head
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			mustAppend(t, j, KindVerdict, payload(512))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("durable appends wedged behind the backpressure gate")
	}
	st := j.Retention()
	if ckpts.Load() < 2 || st.Compactions == 0 {
		t.Fatalf("%d checkpoints, retention %+v: the ladder never got coverage", ckpts.Load(), st)
	}
	if st.UsageBytes > 2*MinMaxBytes {
		t.Fatalf("usage %d stayed far over the %d budget", st.UsageBytes, MinMaxBytes)
	}
}

// TestCheckpointCompactionKeepsFrames: on a MemBackend, compaction cuts
// the prefix in place, and the bytes left are exactly the surviving
// events' frames — the same bytes a re-encoding would produce — so a
// restart replays them clean.
func TestCheckpointCompactionKeepsFrames(t *testing.T) {
	mem := NewMemBackend(nil)
	j, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustAppend(t, j, KindVerdict, fmt.Sprintf(`{"i":%d}`, i))
	}
	j.SetCovered(30)
	if st := j.Compact(); st.HorizonSeq != 30 || st.Compactions != 1 {
		t.Fatalf("retention %+v", st)
	}
	var want []byte
	for _, ev := range j.Events(0) {
		want = append(want, EncodeEvent(ev)...)
	}
	if got := mustReadAll(t, mem); !bytes.Equal(got, want) {
		t.Fatalf("backend holds %d bytes, the surviving events encode to %d", len(got), len(want))
	}
	if j.Usage() != int64(len(want)) {
		t.Fatalf("usage %d, backend %d", j.Usage(), len(want))
	}
	mustAppend(t, j, KindVerdict, `{"after":1}`)
	j.Close()
	re, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.ReplayStats(); st.Events != 21 || st.Corrupt != 0 || re.Horizon() != 30 || re.LastSeq() != 51 {
		t.Fatalf("restart: %+v horizon %d head %d", st, re.Horizon(), re.LastSeq())
	}
}

// tornMem is a MemBackend whose armed Append keeps half its bytes and
// fails, the way a torn write does.
type tornMem struct {
	*MemBackend
	tear atomic.Bool
}

func (tm *tornMem) Append(b []byte) error {
	if tm.tear.Swap(false) {
		_ = tm.MemBackend.Append(b[:len(b)/2])
		return errors.New("injected torn write")
	}
	return tm.MemBackend.Append(b)
}

// TestCheckpointCompactionAfterFailedAppend: once an append fails, the
// writer no longer knows the backend's layout, so the next compaction
// re-encodes the suffix instead of cutting at a stale offset.
func TestCheckpointCompactionAfterFailedAppend(t *testing.T) {
	tm := &tornMem{MemBackend: NewMemBackend(nil)}
	j, err := Open(tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		mustAppend(t, j, KindVerdict, `{}`)
	}
	tm.tear.Store(true)
	if _, err := j.Append(KindVerdict, []byte(`{"torn":true}`)); err == nil {
		t.Fatal("armed append succeeded")
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, j, KindVerdict, `{}`)
	}
	j.SetCovered(8)
	j.Compact()
	evs, st := DecodeEvents(mustReadAll(t, tm))
	if st.Corrupt != 0 || len(evs) != 3 || evs[0].Seq != 9 {
		t.Fatalf("after compaction the backend decodes to %d events (%+v), want seqs 9-11 clean", len(evs), st)
	}
}

// TestCheckpointRejectsOversizedChunk: a chunk over MaxEventBytes fails
// at admission and does not leave the trigger waiting for an answer.
func TestCheckpointRejectsOversizedChunk(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	big := make([]byte, MaxEventBytes+1)
	if _, err := j.AppendCheckpoint([][]byte{big}); !errors.Is(err, ErrEventTooLarge) {
		t.Fatalf("oversized chunk: err = %v", err)
	}
	if _, err := j.AppendCheckpoint(nil); err == nil {
		t.Fatal("empty checkpoint accepted")
	}
	if j.ckptDue.Load() {
		t.Fatal("a refused checkpoint left the trigger waiting")
	}
}
