package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cluster/store"
)

// Event is one journal entry: a monotonic sequence number, a kind from
// the registry in events.go, and an opaque JSON payload.
type Event struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// eventFraming bounds what framing adds to an event's kind and data:
// the record header and CRC plus the body's JSON punctuation. The
// writer sizes a batch's buffer with it.
const eventFraming = store.RecordOverhead + len(`{"kind":"","data":}`)

// eventBody is the payload inside the SNP1 frame; the sequence number
// rides the frame's generation field, so it is CRC-protected without
// being duplicated in the JSON.
type eventBody struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Stats summarizes one replay pass over a journal byte stream.
type Stats struct {
	// Events is the number of records accepted.
	Events int `json:"events"`
	// Corrupt counts records rejected by framing or payload validation.
	Corrupt int `json:"corrupt"`
	// Stale counts well-formed records whose sequence number did not
	// advance past the last accepted one (duplicated or reordered
	// bytes, e.g. from a replayed torn region).
	Stale int `json:"stale"`
	// Resyncs counts NextMagic skips past damaged regions.
	Resyncs int `json:"resyncs"`
	// Bytes is the total input length.
	Bytes int `json:"bytes"`
}

// EncodeEvent frames one event in the store's SNP1 record format: the
// sequence number in the generation field, the kind + data as a JSON
// payload, CRC32 over the lot.
func EncodeEvent(ev Event) []byte { return AppendEvent(nil, ev) }

// bodyEncoder is a reusable JSON encoder for event bodies; the writer
// frames every batch through one, so a commit allocates only its output.
type bodyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var bodyEncoders = sync.Pool{New: func() any {
	e := &bodyEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// AppendEvent appends EncodeEvent(ev) to dst, so a caller framing many
// events grows one buffer.
func AppendEvent(dst []byte, ev Event) []byte {
	e := bodyEncoders.Get().(*bodyEncoder)
	defer bodyEncoders.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(eventBody{Kind: ev.Kind, Data: ev.Data}); err != nil {
		// Kind is a registry string and Data is already-valid JSON;
		// reaching here means a caller handed us a non-JSON RawMessage.
		// Frame the error loudly rather than panicking the writer.
		e.buf.Reset()
		_ = e.enc.Encode(eventBody{Kind: ev.Kind})
	}
	body := bytes.TrimSuffix(e.buf.Bytes(), []byte{'\n'})
	return store.AppendRecord(dst, ev.Seq, body)
}

// decodeOne parses a single event from the front of b.
func decodeOne(b []byte) (Event, []byte, error) {
	seq, payload, rest, err := store.DecodeRecord(b)
	if err != nil {
		return Event{}, nil, err
	}
	var body eventBody
	if err := json.Unmarshal(payload, &body); err != nil {
		return Event{}, nil, fmt.Errorf("%w: event body: %v", store.ErrCorrupt, err)
	}
	if body.Kind == "" {
		return Event{}, nil, fmt.Errorf("%w: event without kind", store.ErrCorrupt)
	}
	if len(body.Data) > MaxEventBytes {
		return Event{}, nil, fmt.Errorf("%w: event data %d bytes", store.ErrCorrupt, len(body.Data))
	}
	return Event{Seq: seq, Kind: body.Kind, Data: body.Data}, rest, nil
}

// DecodeEvents replays a journal byte stream, accepting every valid
// record whose sequence number advances monotonically and
// resynchronizing past anything else via NextMagic. It never fails:
// arbitrary bytes decode to the longest recoverable event history plus
// stats on what was skipped. Sequence gaps are legal (failed group
// commits consume numbers); regressions and duplicates are not.
func DecodeEvents(b []byte) ([]Event, Stats) {
	events, _, stats := decodeEvents(b)
	return events, stats
}

// decodeEvents is DecodeEvents that also reports where each accepted
// event's frame starts in b.
func decodeEvents(b []byte) ([]Event, []int64, Stats) {
	stats := Stats{Bytes: len(b)}
	var events []Event
	var offs []int64
	var lastSeq uint64
	for len(b) > 0 {
		at := int64(stats.Bytes - len(b))
		ev, rest, err := decodeOne(b)
		if err == nil {
			b = rest
			if ev.Seq <= lastSeq {
				stats.Stale++
				continue
			}
			lastSeq = ev.Seq
			events = append(events, ev)
			offs = append(offs, at)
			stats.Events++
			continue
		}
		stats.Corrupt++
		skip := store.NextMagic(b)
		if skip < 0 {
			break
		}
		stats.Resyncs++
		b = b[skip:]
	}
	return events, offs, stats
}
