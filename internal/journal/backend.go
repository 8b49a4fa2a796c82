package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Backend is the journal's durable byte sink. Append must be
// fsync-equivalent: when it returns nil the bytes survive a crash.
// ReadAll returns everything previously appended, including any torn
// tail a crash left behind — the codec's job is to survive it.
type Backend interface {
	ReadAll() ([]byte, error)
	Append(b []byte) error
}

// ReplaceBackend is the optional capability compaction needs: atomically
// substitute the backend's entire contents with b. The swap must be
// all-or-nothing across a crash — after a kill at any point, ReadAll
// returns either the complete old bytes or the complete new bytes,
// never a mixture — because the compactor's correctness argument is
// exactly that both sides replay to a consistent history.
type ReplaceBackend interface {
	Backend
	Replace(b []byte) error
}

// PrefixDropper is the optional capability that makes compaction cheap:
// cut the first n bytes off the backend's contents, atomically, keeping
// the rest as it is. A backend that has it lets the compactor keep the
// surviving frames instead of re-encoding them for Replace.
type PrefixDropper interface {
	DropPrefix(n int64) error
}

// MemBackend is an in-memory backend for tests and fleet replicas.
// Safe for concurrent use.
type MemBackend struct {
	mu   sync.Mutex
	segs [][]byte // appended buffers, oldest first
	n    int      // total bytes
}

// NewMemBackend returns an empty in-memory backend, optionally seeded
// with existing journal bytes (a "restart" keeps the same backend).
func NewMemBackend(seed []byte) *MemBackend {
	m := &MemBackend{}
	m.set(seed)
	return m
}

// set replaces the contents with a copy of b. Callers hold mu (or own m).
func (m *MemBackend) set(b []byte) {
	m.segs, m.n = nil, len(b)
	if len(b) > 0 {
		m.segs = [][]byte{append([]byte(nil), b...)}
	}
}

func (m *MemBackend) ReadAll() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, 0, m.n)
	for _, seg := range m.segs {
		out = append(out, seg...)
	}
	return out, nil
}

// Append keeps b instead of copying it, so the caller must not modify b
// afterwards. The journal's writer hands over each batch's buffer and
// never touches it again, and the events it publishes share that
// buffer: a replica holds each batch in memory once.
func (m *MemBackend) Append(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(b) > 0 {
		m.segs = append(m.segs, b)
		m.n += len(b)
	}
	return nil
}

// Len returns the backend's current size in bytes.
func (m *MemBackend) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Replace atomically substitutes the backend's contents — the in-memory
// model of a compaction swap.
func (m *MemBackend) Replace(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.set(b)
	return nil
}

// DropPrefix cuts the first n bytes: whole buffers go, and the one the
// cut falls in is re-sliced.
func (m *MemBackend) DropPrefix(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 || n > int64(m.n) {
		return fmt.Errorf("journal: drop %d bytes of a %d-byte backend", n, m.n)
	}
	m.n -= int(n)
	for n > 0 {
		if seg := m.segs[0]; int64(len(seg)) > n {
			m.segs[0] = seg[n:]
			break
		}
		n -= int64(len(m.segs[0]))
		m.segs[0] = nil
		m.segs = m.segs[1:]
	}
	return nil
}

// FileBackend appends to one O_APPEND file, syncing after every write
// so a nil Append means the batch is on disk. The group-commit writer
// amortizes that sync across a whole batch.
type FileBackend struct {
	path string
	mu   sync.Mutex
	f    *os.File
}

// compactSuffix names the temporary file a compaction rewrite targets.
// The rename onto the journal path is the commit point.
const compactSuffix = ".compact"

// OpenFile opens (creating if absent) the journal file at path. A
// leftover compaction temp file means a crash landed before the rename
// commit point; the original journal is intact, so the temp is garbage.
func OpenFile(path string) (*FileBackend, error) {
	_ = os.Remove(path + compactSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileBackend{path: path, f: f}, nil
}

func (fb *FileBackend) ReadAll() ([]byte, error) {
	b, err := os.ReadFile(fb.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return b, err
}

func (fb *FileBackend) Append(b []byte) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.f == nil {
		return errors.New("journal: file backend lost its handle after a failed compaction swap")
	}
	if _, err := fb.f.Write(b); err != nil {
		return err
	}
	return fb.f.Sync()
}

// Replace rewrites the journal file with b via the classic crash-safe
// sequence: write a temp file, fsync it, rename it over the journal
// path, fsync the parent directory, then move the append handle to the
// new inode. A kill before the rename leaves the old file; a kill after
// leaves the new one; there is no in-between state a restart can read.
func (fb *FileBackend) Replace(b []byte) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	tmp := fb.path + compactSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, fb.path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(fb.path))
	// The old handle points at the now-unlinked inode; appends through it
	// would vanish. Reopen before closing it so a reopen failure leaves
	// the backend loudly broken (nil handle) instead of silently lossy.
	nf, err := os.OpenFile(fb.path, os.O_APPEND|os.O_WRONLY, 0o644)
	old := fb.f
	fb.f = nf // nil on error
	if old != nil {
		old.Close()
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems reject directory fsync, and the rename
// itself is already ordered on the ones that matter.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Close closes the underlying file. Call after Journal.Close.
func (fb *FileBackend) Close() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.f == nil {
		return nil
	}
	return fb.f.Close()
}

// ErrBackendDead is returned by a TornBackend after its injected tear:
// the modeled disk is gone, as after a hard kill.
var ErrBackendDead = errors.New("journal: backend dead after torn write")

// TornBackend models a hard kill mid-batch: the Nth Append persists
// only a prefix of its bytes yet reports success (the
// acknowledged-but-unflushed lie every group-commit design must bound),
// and every later Append fails — the process is dead; only the torn
// bytes survive for the restart to replay. Deterministic: the tear
// point and prefix fraction are fixed by construction.
type TornBackend struct {
	mem      MemBackend
	mu       sync.Mutex
	appends  int
	tearAt   int
	prefixOf int // keep len(b)/prefixOf bytes of the torn append
	dead     bool

	// Kill-mid-compaction arming: the next Replace dies instead of
	// completing. killAfterSwap selects which side of the rename commit
	// point the kill lands on — false models a kill before the swap (the
	// old bytes survive untouched), true a kill just after (the new bytes
	// survive). Either way the backend is dead afterwards, exactly like a
	// SIGKILLed process whose restart will replay whatever survived.
	killOnReplace bool
	killAfterSwap bool
}

// NewTornBackend tears the tearAt-th Append (1-based), keeping
// 1/prefixOf of that batch's bytes. prefixOf ≤ 0 keeps nothing.
func NewTornBackend(tearAt, prefixOf int) *TornBackend {
	return &TornBackend{tearAt: tearAt, prefixOf: prefixOf}
}

func (tb *TornBackend) ReadAll() ([]byte, error) { return tb.mem.ReadAll() }

// Bytes returns what actually survived — the restart's input.
func (tb *TornBackend) Bytes() []byte {
	b, _ := tb.mem.ReadAll()
	return b
}

// Torn reports whether the tear has happened yet.
func (tb *TornBackend) Torn() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.dead
}

func (tb *TornBackend) Append(b []byte) error {
	tb.mu.Lock()
	if tb.dead {
		tb.mu.Unlock()
		return ErrBackendDead
	}
	tb.appends++
	torn := tb.appends == tb.tearAt
	if torn {
		tb.dead = true
	}
	tb.mu.Unlock()
	if torn {
		keep := 0
		if tb.prefixOf > 0 {
			keep = len(b) / tb.prefixOf
		}
		tb.mem.Append(b[:keep])
		return nil // the lie: acked but not durable
	}
	return tb.mem.Append(b)
}

// ArmReplaceKill arms a deterministic hard kill inside the next
// Replace. afterSwap=false kills before the atomic swap (old journal
// survives); afterSwap=true kills immediately after it (compacted
// journal survives). Use Bytes() afterwards as the restart's input.
func (tb *TornBackend) ArmReplaceKill(afterSwap bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.killOnReplace = true
	tb.killAfterSwap = afterSwap
}

// Replace implements ReplaceBackend with the armed kill model: an
// unarmed Replace swaps cleanly; an armed one dies on the chosen side
// of the swap and reports the death. Because a real Replace is atomic
// (FileBackend's rename), these are the only two crash outcomes.
func (tb *TornBackend) Replace(b []byte) error {
	tb.mu.Lock()
	if tb.dead {
		tb.mu.Unlock()
		return ErrBackendDead
	}
	kill, after := tb.killOnReplace, tb.killAfterSwap
	if kill {
		tb.dead = true
		tb.killOnReplace = false
	}
	tb.mu.Unlock()
	if kill && !after {
		return ErrBackendDead // died before the rename: old bytes stand
	}
	if err := tb.mem.Replace(b); err != nil {
		return err
	}
	if kill {
		return ErrBackendDead // died after the rename: new bytes stand
	}
	return nil
}
