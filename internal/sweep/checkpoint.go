package sweep

import (
	"bytes"
	"fmt"
	"os"
	"sync"

	"repro/internal/obs"
)

// A checkpoint file is an append-only journal of completed sweep chunks:
// every record is one complete WriteShard wire-format block (header, point
// markers + rows, stats trailer, "# end" terminator), so a checkpoint is
// readable with the same tools as a shard dump and carries the exact
// pre-rendered cells the merge needs for byte-identity with a sequential
// run.
//
// Crash safety comes from the framing, not from the writer: records are
// appended with a single write followed by fsync, and a loader never
// trusts the tail — ParseCheckpoint accepts only the longest prefix of
// complete, valid records and reports everything after it as torn. A
// coordinator that dies mid-append therefore loses at most the record it
// was writing; every previously journaled point survives and is skipped on
// resume.

// recordEnd is the record terminator including its newline; a record
// without it is torn by definition.
const recordEnd = endMarker + "\n"

const endMarker = "# end"

// CheckpointMismatchError reports a checkpoint whose records belong to a
// different sweep (wrong experiment or quick mode). It is deliberately not
// recoverable-by-truncation: silently overwriting another sweep's verified
// points would be data loss, so resuming against the wrong file must fail
// loudly.
type CheckpointMismatchError struct {
	Path            string
	WantExp, GotExp string
	WantQuick       bool
	GotQuick        bool
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("sweep: checkpoint %s belongs to exp=%s quick=%t, want exp=%s quick=%t",
		e.Path, e.GotExp, e.GotQuick, e.WantExp, e.WantQuick)
}

// ParseCheckpoint decodes a checkpoint for the given sweep identity and
// grid size. It returns the union of completed points across all valid
// records (first record wins on duplicates) and the length in bytes of the
// trusted prefix. A torn or corrupt trailing record — truncated last line,
// torn point marker, stats-trailer inconsistency — is excluded from valid
// and from the point map, never trusted; the same corruption anywhere
// before the trailing record means the file is not an append-only journal
// with a damaged tail but a damaged archive, and is rejected loudly. A
// record for a different experiment or quick mode is rejected loudly
// wherever it appears (see CheckpointMismatchError). Duplicated chunks are
// tolerated only when byte-identical (re-dispatch races journal the same
// deterministic rows); conflicting duplicates are corruption and rejected.
func ParseCheckpoint(data []byte, exp string, quick bool, n int) (done map[int][][]string, valid int, err error) {
	done = make(map[int][][]string)
	rest := data
	for len(rest) > 0 {
		recLen := recordLen(rest)
		if recLen < 0 {
			// No terminator in what remains: torn tail.
			break
		}
		rec := rest[:recLen]
		// The record is "trailing" when no further complete record follows:
		// only there is corruption attributable to a crash mid-append.
		trailing := recordLen(rest[recLen:]) < 0
		h, byPoint, _, perr := ParseShard(bytes.NewReader(rec))
		if perr == nil && (h.Exp != exp || h.Quick != quick) {
			return nil, 0, &CheckpointMismatchError{
				WantExp: exp, GotExp: h.Exp, WantQuick: quick, GotQuick: h.Quick,
			}
		}
		if perr == nil {
			perr = foldRecord(done, byPoint, n)
		}
		if perr != nil {
			// A crash tears at most a prefix of one WriteShard record, so a
			// failed record containing a second shard header has swallowed a
			// later record's framing: that is damage before the tail even
			// when no complete record follows it. The header can be glued
			// mid-line when the damage cut a row short, so the search is for
			// the literal anywhere past the record's own header at offset 0.
			spansLater := bytes.Contains(rec[1:], []byte("# sweep v1 "))
			if trailing && !spansLater {
				// Corrupt trailing record: detected, truncated, never trusted.
				// Points it named were never verified, so dropping it drops
				// nothing the journal had promised.
				break
			}
			return nil, 0, fmt.Errorf("sweep: checkpoint record at byte %d is corrupt before the tail: %w",
				len(data)-len(rest), perr)
		}
		valid += recLen
		rest = rest[recLen:]
	}
	return done, valid, nil
}

// recordLen returns the length of the first complete record in b (through
// its "# end\n" terminator), or -1 when no terminator remains.
func recordLen(b []byte) int {
	// The terminator must sit at the start of a line; a cell cannot contain
	// '#' at line start (WriteShard rejects it), so a plain search for the
	// newline-delimited marker is exact.
	if bytes.HasPrefix(b, []byte(recordEnd)) {
		return len(recordEnd)
	}
	i := bytes.Index(b, []byte("\n"+recordEnd))
	if i < 0 {
		return -1
	}
	return i + 1 + len(recordEnd)
}

// foldRecord merges one record's points into done, enforcing grid range and
// duplicate consistency.
func foldRecord(done map[int][][]string, byPoint map[int][][]string, n int) error {
	for p, rows := range byPoint {
		if p < 0 || p >= n {
			return fmt.Errorf("sweep: checkpoint point %d outside grid of %d", p, n)
		}
		if prev, dup := done[p]; dup {
			if !rowsEqual(prev, rows) {
				return fmt.Errorf("sweep: checkpoint point %d journaled twice with different rows", p)
			}
			continue
		}
		done[p] = rows
	}
	return nil
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Checkpoint journals completed chunks of one sweep to an append-only
// file. All methods are safe for concurrent use (the cluster coordinator
// appends from every agent goroutine).
type Checkpoint struct {
	mu    sync.Mutex
	f     *os.File
	exp   string
	quick bool
}

// OpenCheckpoint opens (creating if absent) the checkpoint journal for one
// sweep, re-validates every record against the sweep identity and grid
// size, truncates a torn or corrupt trailing record, and returns the
// journal positioned for appending together with the completed points it
// already holds. torn reports how many bytes of untrusted tail were cut.
func OpenCheckpoint(path, exp string, quick bool, n int) (cp *Checkpoint, done map[int][][]string, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	done, valid, err := ParseCheckpoint(data, exp, quick, n)
	if err != nil {
		if me, ok := err.(*CheckpointMismatchError); ok {
			me.Path = path
		}
		return nil, nil, 0, err
	}
	torn = len(data) - valid
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if torn > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("sweep: checkpoint: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return &Checkpoint{f: f, exp: exp, quick: quick}, done, torn, nil
}

// AppendChunk journals one verified chunk: the record is rendered in full,
// written with a single write call, and fsynced before AppendChunk
// returns, so a crash can tear at most the record being written — exactly
// the case the loader truncates.
func (cp *Checkpoint) AppendChunk(byPoint map[int][][]string, st ShardStats) error {
	var buf bytes.Buffer
	if err := WriteShard(&buf, Header{Exp: cp.exp, Quick: cp.quick}, byPoint, st); err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, err := cp.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("sweep: checkpoint append: %w", err)
	}
	if err := cp.f.Sync(); err != nil {
		return fmt.Errorf("sweep: checkpoint sync: %w", err)
	}
	obs.Checkpoint.Fsyncs.Inc()
	obs.Checkpoint.Bytes.Add(uint64(buf.Len()))
	return nil
}

// Close releases the journal file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.f.Close()
}

// CountRecords reports how many complete records data holds — a cheap
// progress probe for orchestration and tests (records, not points:
// duplicate chunks count individually).
func CountRecords(data []byte) int {
	n := 0
	for {
		l := recordLen(data)
		if l < 0 {
			return n
		}
		n++
		data = data[l:]
	}
}
