package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/binio"
)

// The tail log is the incremental half of catalog persistence: while
// catalog.snap captures a full serving catalog, the tail log records
// the mutations since that capture — appended row batches and delete
// predicates — so live ingest never forces a wholesale re-save. Each
// mutation lands as one self-framed, CRC-checked record appended to the
// log; a restart loads the base snapshot (indexes restored verbatim)
// and replays the tail in order through the store's append path and
// tombstone delete path — no sample build, no index rebuild.
// A full re-save folds the tail into the base and deletes the log.
//
// Layout (little-endian), append-only:
//
//	header: magic "VTLG" | uint32 format version | uint64 base epoch
//	record: uint64 payload length | payload | uint32 CRC32(payload)
//	payload: uint32 kind | body
//	  kind 0 (append): table name | uint32 ncols | uint64 rows | ncols × F64s
//	  kind 1 (delete): table name | uint32 npreds | npreds × (col | F64 min | F64 max)
//
// The base epoch pairs the log with the snapshot it extends: a full
// save stamps the snapshot with a fresh epoch and then deletes the tail
// it folded in. If the process dies between those two steps, the
// leftover tail's epoch is older than the snapshot's, and the loader
// discards it instead of replaying rows the base already contains.
//
// Delete records carry the PREDICATE, not the matched row ids: row ids
// shift when a reclaiming compaction rewrites the survivors, but
// replaying the same predicate stream against the same snapshot + append
// stream reproduces the same visible rows regardless of when (or
// whether) compactions ran in the original process.
//
// Crash semantics: a record is written with one Write call after the
// previous records are already durable in the file's byte order, so the
// only torn state a crash can leave is an incomplete final record.
// LoadTail detects that (fewer bytes than the frame claims) and drops
// the partial batch silently — the in-memory rows it described died
// with the process that was appending them. A complete frame whose CRC
// does not match is real corruption and fails the load.

const (
	// TailMagic identifies a snapshot tail log.
	TailMagic = "VTLG"
	// TailFormatVersion is the only tail layout this build reads or
	// writes; a log of any other version fails with ErrVersionSkew, and
	// the caller rebuilds and re-saves. Bump it on any layout change.
	TailFormatVersion = 3

	tailHeaderLen = 16 // magic + version + base epoch
	tailFrameLen  = 12

	// Record kinds (payload prefix).
	tailKindAppend = 0
	tailKindDelete = 1
)

// TailPred is one conjunctive range predicate of a delete record,
// mirroring store.Pred without importing its semantics here.
type TailPred struct {
	Col      string
	Min, Max float64
}

// TailRecord is one replayable mutation.
type TailRecord struct {
	// Table names the table the mutation applies to.
	Table string
	// Cols holds an append batch as parallel column slices in the
	// table's schema order; nil for delete records.
	Cols [][]float64
	// Delete marks a delete record; Preds holds its conjunctive range
	// predicates (empty means "delete every row").
	Delete bool
	Preds  []TailPred
}

// AppendTail appends one batch record to the tail log at path, creating
// the log (with its header, stamped with the catalog's save epoch) when
// absent. Columns must be non-empty and of equal length. The whole
// record is issued as a single write on an O_APPEND descriptor, so
// concurrent readers of the file never observe a frame boundary inside
// it.
func AppendTail(path, table string, cols [][]float64, epoch uint64) error {
	if table == "" {
		return errors.New("snapshot: tail append: empty table name")
	}
	if len(cols) == 0 {
		return errors.New("snapshot: tail append: no columns")
	}
	rows := len(cols[0])
	for i, c := range cols {
		if len(c) != rows {
			return fmt.Errorf("snapshot: tail append: column %d has %d rows, column 0 has %d", i, len(c), rows)
		}
	}
	if rows == 0 {
		return nil
	}
	payload, err := encodeTailAppend(table, cols)
	if err != nil {
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	return appendTailPayload(path, payload, epoch)
}

// AppendTailDelete appends one delete record to the tail log at path:
// the predicate (not the matched rows) is logged, so replay reproduces
// the delete against whatever state the preceding records rebuilt. An
// empty predicate list is the delete-everything record.
func AppendTailDelete(path, table string, preds []TailPred, epoch uint64) error {
	if table == "" {
		return errors.New("snapshot: tail append: empty table name")
	}
	payload, err := encodeTailDelete(table, preds)
	if err != nil {
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	return appendTailPayload(path, payload, epoch)
}

func encodeTailDelete(table string, preds []TailPred) ([]byte, error) {
	var payload bytes.Buffer
	pw := binio.NewWriter(&payload)
	pw.U32(tailKindDelete)
	pw.String(table)
	pw.U32(uint32(len(preds)))
	for _, p := range preds {
		pw.String(p.Col)
		pw.F64(p.Min)
		pw.F64(p.Max)
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	return payload.Bytes(), nil
}

func encodeTailAppend(table string, cols [][]float64) ([]byte, error) {
	var payload bytes.Buffer
	pw := binio.NewWriter(&payload)
	pw.U32(tailKindAppend)
	pw.String(table)
	pw.U32(uint32(len(cols)))
	pw.U64(uint64(len(cols[0])))
	for _, c := range cols {
		pw.F64s(c)
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	return payload.Bytes(), nil
}

// appendTailPayload frames payload and appends it to the log, writing
// the header first when the log is new (or its header write was torn).
// A log whose epoch differs from the catalog's was written against a
// different base — its records are either already folded into the
// snapshot we serve or unreachable from it — so it is truncated and
// restarted rather than appended to.
func appendTailPayload(path string, payload []byte, epoch uint64) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	size := st.Size()
	hdr := make([]byte, min(size, tailHeaderLen))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	if err := checkTailHeader(hdr); err != nil {
		return err
	}
	// A torn header write (the epoch never landed, so nothing after it
	// can be valid) or a stale log from another save generation (e.g. the
	// crash window between writing a snapshot and removing the tail it
	// folded in), whose records must never replay against the current
	// base: restart the log for this epoch.
	if size > 0 && (size < tailHeaderLen || binary.LittleEndian.Uint64(hdr[8:]) != epoch) {
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("snapshot: tail append: %w", err)
		}
		size = 0
	}
	buf := make([]byte, 0, tailHeaderLen+tailFrameLen+len(payload))
	if size == 0 {
		buf = append(buf, TailMagic...)
		buf = binary.LittleEndian.AppendUint32(buf, TailFormatVersion)
		buf = binary.LittleEndian.AppendUint64(buf, epoch)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	if _, err := f.Write(buf); err != nil {
		// Best effort: cut any partially written frame back off. A torn
		// FINAL record is tolerated by LoadTail, but if a later append
		// succeeded after it the tear would sit mid-file and condemn
		// the whole log; callers additionally stop appending after an
		// error (the catalog marks the log degraded until the next full
		// save), so a failed truncate still cannot be built upon.
		_ = f.Truncate(size)
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("snapshot: tail append: %w", err)
	}
	return f.Close()
}

// checkTailHeader validates the magic and format version in a log's
// leading bytes. Fewer than the 8 bytes of magic + version is a torn
// first write, which is the caller's to handle, not an error.
func checkTailHeader(hdr []byte) error {
	if len(hdr) < 8 {
		return nil
	}
	if string(hdr[:4]) != TailMagic {
		return corrupt("tail log: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != TailFormatVersion {
		return fmt.Errorf("%w: tail log is format v%d, this build reads and writes only v%d",
			ErrVersionSkew, v, TailFormatVersion)
	}
	return nil
}

// LoadTail reads every complete record of the tail log at path and the
// base epoch the log was written against. A missing file, or one too
// short to hold the header (a torn first write), is an empty tail
// (nil, 0, nil). An incomplete final record — the expected remnant of a
// crash mid-append — is dropped silently; checksum mismatches, bad
// framing, and version skew return an error (ErrCorrupt /
// ErrVersionSkew) so the caller can fall back to a full rebuild instead
// of serving a half-trusted tail.
func LoadTail(path string) ([]TailRecord, uint64, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	if err := checkTailHeader(raw); err != nil {
		return nil, 0, err
	}
	if len(raw) < tailHeaderLen {
		return nil, 0, nil
	}
	epoch := binary.LittleEndian.Uint64(raw[8:16])
	off := tailHeaderLen
	var recs []TailRecord
	for ri := 0; off < len(raw); ri++ {
		if len(raw)-off < 8 {
			break // torn final frame header
		}
		plen := binary.LittleEndian.Uint64(raw[off : off+8])
		if plen > uint64(math.MaxInt64) || int64(plen) > int64(len(raw)-off-tailFrameLen) {
			break // frame claims more bytes than exist: torn final record
		}
		payload := raw[off+8 : off+8+int(plen)]
		sum := binary.LittleEndian.Uint32(raw[off+8+int(plen) : off+tailFrameLen+int(plen)])
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, 0, corrupt("tail log record %d checksum mismatch", ri)
		}
		rec, err := decodeTailRecord(payload, ri)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rec)
		off += tailFrameLen + int(plen)
	}
	return recs, epoch, nil
}

func decodeTailRecord(payload []byte, ri int) (TailRecord, error) {
	var rec TailRecord
	pr := binio.NewBytesReader(payload)
	switch kind := pr.U32(); kind {
	case tailKindAppend:
		rec.Table = pr.String(maxNameLen)
		ncols := pr.U32()
		rows := pr.U64()
		if err := pr.Err(); err != nil {
			return rec, corrupt("tail log record %d: %v", ri, err)
		}
		if ncols == 0 || ncols > maxColumns {
			return rec, corrupt("tail log record %d claims %d columns", ri, ncols)
		}
		if rows > math.MaxInt32 {
			return rec, corrupt("tail log record %d claims %d rows", ri, rows)
		}
		for i := uint32(0); i < ncols; i++ {
			col := pr.F64s()
			if pr.Err() != nil {
				break
			}
			if uint64(len(col)) != rows {
				return rec, corrupt("tail log record %d column %d has %d rows, header says %d", ri, i, len(col), rows)
			}
			rec.Cols = append(rec.Cols, col)
		}
	case tailKindDelete:
		rec.Delete = true
		rec.Table = pr.String(maxNameLen)
		npreds := pr.U32()
		if err := pr.Err(); err != nil {
			return rec, corrupt("tail log record %d: %v", ri, err)
		}
		if npreds > maxColumns {
			return rec, corrupt("tail log record %d claims %d predicates", ri, npreds)
		}
		for i := uint32(0); i < npreds && pr.Err() == nil; i++ {
			var p TailPred
			p.Col = pr.String(maxNameLen)
			p.Min = pr.F64()
			p.Max = pr.F64()
			if pr.Err() == nil {
				rec.Preds = append(rec.Preds, p)
			}
		}
	default:
		return rec, corrupt("tail log record %d has unknown kind %d", ri, kind)
	}
	if err := pr.Err(); err != nil {
		return rec, corrupt("tail log record %d: %v", ri, err)
	}
	if pr.Remaining() != 0 {
		return rec, corrupt("tail log record %d has %d trailing bytes", ri, pr.Remaining())
	}
	return rec, nil
}

// RemoveTail deletes the tail log at path; a missing log is fine (the
// caller just folded it into a full snapshot, or never wrote one).
func RemoveTail(path string) error {
	if err := fsys.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
