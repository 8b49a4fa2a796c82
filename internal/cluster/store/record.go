// Package store is the durable crash-recovery layer under the cluster
// runtime: a per-node snapshot store that persists process registers as
// checksummed, versioned records, with a seeded storage-fault injector
// layered beneath it so recovery paths are exercised against hostile
// disks — torn writes, bit flips, stale-generation rollbacks, missing
// files.
//
// The paper's frame makes this layer cheap to get right: Theorem 1
// guarantees the derived token rings reconverge from *arbitrary*
// transient state, so a node restarting from a corrupted, stale, or
// absent snapshot is an in-model perturbation, not a disaster. The
// store therefore never needs write-ahead logging or replication — it
// validates what it reads, and the supervisor deliberately resumes from
// arbitrary state when validation fails, trusting convergence.
//
// Three pieces:
//
//   - the record framing (this file): magic + monotonic generation +
//     length-prefixed payload + CRC32, the unit both the per-node
//     snapshot files and checkd's persisted verdict cache are built
//     from;
//   - the FS abstraction and the fault injector (fs.go, injector.go):
//     every store write goes write-to-temp + atomic rename through a
//     pluggable FS, and the injector corrupts those primitives on a
//     seeded schedule;
//   - the Store itself (store.go): Save/Load of one register snapshot
//     per node, with generation-monotonicity checking that detects
//     rollback to a stale snapshot.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// recordMagic opens every record. A version bump changes the last byte.
var recordMagic = [4]byte{'S', 'N', 'P', '1'}

// recordHeaderSize is magic + generation + payload length.
const recordHeaderSize = 4 + 8 + 4

// maxRecordPayload bounds one record's payload; snapshots are a few
// dozen bytes and cache entries a few KB, so anything larger is a
// corrupt length field, not data.
const maxRecordPayload = 1 << 24

// Record read errors. ErrCorrupt covers everything a hostile disk can
// produce (bad magic, impossible length, checksum mismatch, truncation);
// ErrStale and ErrNotFound are store-level classifications.
var (
	ErrCorrupt  = errors.New("store: corrupt record")
	ErrStale    = errors.New("store: stale generation")
	ErrNotFound = errors.New("store: no snapshot")
)

// EncodeRecord frames one payload: magic, big-endian generation,
// big-endian payload length, payload, CRC32 (IEEE) over the generation +
// length + payload bytes. The CRC covering the length prefix means a
// torn write that truncates the payload cannot masquerade as a shorter
// valid record.
func EncodeRecord(gen uint64, payload []byte) []byte {
	return AppendRecord(make([]byte, 0, RecordOverhead+len(payload)), gen, payload)
}

// RecordOverhead is the framing EncodeRecord adds around a payload.
const RecordOverhead = recordHeaderSize + 4

// AppendRecord appends EncodeRecord(gen, payload) to dst, so a writer
// framing many records can build them in one buffer.
func AppendRecord(dst []byte, gen uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, recordMagic[:]...)
	dst = binary.BigEndian.AppendUint64(dst, gen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start+4:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// DecodeRecord parses one record from the front of b, returning the
// generation, the payload, and the remaining bytes after the record.
// Every failure mode — short buffer, wrong magic, oversized length,
// checksum mismatch — is ErrCorrupt; arbitrary bytes either decode to
// exactly what was encoded or fail loudly, never to a silently-wrong
// payload.
func DecodeRecord(b []byte) (gen uint64, payload, rest []byte, err error) {
	if len(b) < recordHeaderSize+4 {
		return 0, nil, nil, fmt.Errorf("%w: %d bytes is shorter than a record header", ErrCorrupt, len(b))
	}
	if [4]byte(b[:4]) != recordMagic {
		return 0, nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	gen = binary.BigEndian.Uint64(b[4:])
	n := binary.BigEndian.Uint32(b[12:])
	if n > maxRecordPayload || int(n) > len(b)-recordHeaderSize-4 {
		return 0, nil, nil, fmt.Errorf("%w: payload length %d exceeds the %d bytes present", ErrCorrupt, n, len(b))
	}
	end := recordHeaderSize + int(n)
	want := binary.BigEndian.Uint32(b[end:])
	if got := crc32.ChecksumIEEE(b[4:end]); got != want {
		return 0, nil, nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return gen, b[recordHeaderSize:end], b[end+4:], nil
}

// NextMagic returns the offset of the next record-magic occurrence in b
// at or after position 1, or -1. Loaders of record streams use it to
// resynchronize past a corrupt record and skip to the next candidate
// instead of abandoning the rest of the file.
func NextMagic(b []byte) int {
	for i := 1; i+4 <= len(b); i++ {
		if [4]byte(b[i:i+4]) == recordMagic {
			return i
		}
	}
	return -1
}
