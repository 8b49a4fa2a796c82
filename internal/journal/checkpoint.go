package journal

import (
	"errors"
	"fmt"
)

// In-journal checkpoints: a journal whose owner keeps no snapshot file
// can still compact, because the owner writes its serving state into
// the journal itself. A checkpoint is a run of KindCheckpoint events
// committed as one batch; what the chunks hold is the owner's business
// (the service writes its verdict cache). The journal decides when a
// checkpoint is due and carries it past the backpressure gate; the
// owner publishes coverage with SetCovered once the checkpoint is
// durable.
//
// Replaying a checkpoint plus the events after it reaches the state
// the whole history implies — the same convergence argument as replay
// itself — so once a later checkpoint is durable, the prefix below an
// earlier one may go. The trigger keeps that prefix short: a checkpoint
// is due once the bytes committed since the last one exceed that
// checkpoint's size, and never before CheckpointFloor bytes, so the
// journal's steady-state size is a small multiple of one checkpoint.

// CheckpointFloor is the least traffic, in bytes committed, between two
// in-journal checkpoints. It keeps a small or empty cache from being
// checkpointed after every few requests.
const CheckpointFloor = 1 << 20

// SetCheckpointWriter makes the journal its own compaction source. The
// writer calls fn (it must not block; the owner coalesces) when a
// checkpoint is due and, as with SetCheckpointRequest, when the disk
// budget needs coverage. The owner answers with AppendCheckpoint and
// then SetCovered. Install before traffic.
func (j *Journal) SetCheckpointWriter(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ckptReq = fn
	j.selfCkpt = true
}

// AppendCheckpoint durably appends one checkpoint. Each chunk becomes a
// KindCheckpoint event, and all of them commit in one batch with
// consecutive sequence numbers: a crash leaves at worst a prefix of the
// chunks, never chunks interleaved with other events. The batch goes
// ahead of queued appends and through the backpressure gate. It returns
// the sequence number of the first chunk.
func (j *Journal) AppendCheckpoint(chunks [][]byte) (uint64, error) {
	if len(chunks) == 0 {
		return 0, errors.New("journal: checkpoint without chunks")
	}
	ack := make(chan appendAck, len(chunks))
	reqs := make([]appendReq, len(chunks))
	for i, c := range chunks {
		if len(c) > MaxEventBytes {
			j.ckptDue.Store(false)
			return 0, fmt.Errorf("%w: checkpoint chunk of %d bytes", ErrEventTooLarge, len(c))
		}
		reqs[i] = appendReq{kind: KindCheckpoint, data: c, ack: ack}
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	j.depth.Add(int64(len(reqs)))
	j.mu.Unlock()
	j.ckptc <- reqs
	var first uint64
	var err error
	for range reqs {
		a := <-ack
		if a.err != nil {
			err = a.err
		} else if first == 0 {
			first = a.seq
		}
	}
	return first, err
}

// commitCheckpoint commits one checkpoint on the writer and restarts the
// trigger's count from it.
func (j *Journal) commitCheckpoint(reqs []appendReq) {
	if n, err := j.commit(reqs); err == nil {
		j.ckptSize, j.sinceCkpt = n, 0
	}
	j.ckptDue.Store(false)
}

// checkCheckpoint runs after every commit: once a checkpoint is due it
// asks an in-journal checkpoint writer for one, once per checkpoint.
func (j *Journal) checkCheckpoint() {
	if j.sinceCkpt <= max(j.ckptSize, CheckpointFloor) || j.ckptDue.Load() {
		return
	}
	j.mu.Lock()
	req, self := j.ckptReq, j.selfCkpt
	j.mu.Unlock()
	if !self || req == nil {
		return
	}
	j.ckptDue.Store(true)
	req()
}
