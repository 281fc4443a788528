package store

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/grid"
	"ptychopath/internal/jobs/store/faultfs"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
)

// The write-ahead log (PTYWALv2) is a sequence of CRC-32-framed,
// length-prefixed records in the house framing style of PTYCHS
// chunks and PTGW wire frames:
//
//	magic   [8]byte  "PTYWALv2"
//	records any number of:
//	        kind    [1]byte (see record kinds below)
//	        length  int64: payload byte count
//	        payload length bytes of JSON (walRecord)
//	        crc     uint32: CRC-32 (Castagnoli) of the payload
//
// The version in the magic names the record checksum: a PTYWALv1 log
// or PTYSNPv1 snapshot (IEEE CRC-32) is not a WAL (ErrNotWAL), and an
// IEEE-checksummed record under the v2 magic is a torn record.
//
// Appends are atomic at record granularity: a reader accepts a record
// only after its CRC verifies, so a crash mid-append leaves a torn
// tail that replay detects (ErrTornRecord), drops, and truncates —
// never a partial apply. Synced records (submit, checkpoint, EOF,
// terminal) survive any crash; unsynced ones (per-iteration progress)
// may be lost, costing only progress counters.
//
// Compaction folds the log into a snapshot (PTYSNPv2: the same framing
// under its own magic + one 'S' record holding the merged job state as
// JSON) plus a fresh tail. The snapshot is written tmp + sync +
// rename, THEN the log is reset, so every crash window replays to the
// same state: records are absolute (latest-wins per field), making
// double-apply across the snapshot boundary harmless. Full byte-level
// spec: docs/FORMATS.md.

var (
	walMagic  = [8]byte{'P', 'T', 'Y', 'W', 'A', 'L', 'v', '2'}
	snapMagic = [8]byte{'P', 'T', 'Y', 'S', 'N', 'P', 'v', '2'}
)

// Record kinds.
const (
	recSubmit     = 'J' // job entered the registry
	recStart      = 'R' // Queued→Running
	recIteration  = 'I' // iteration progress (unsynced)
	recCheckpoint = 'C' // OBJCKv1 checkpoint written
	recFrames     = 'F' // streaming ingest accepted frames
	recEOF        = 'E' // streaming producer closed the stream
	recFinish     = 'T' // terminal transition
	recSnapshot   = 'S' // compacted state (snapshot files only)
)

// Payload caps, enforced before any payload-sized allocation: ordinary
// records are small JSON; a snapshot record carries the whole merged
// registry.
const (
	maxRecordBytes   = 1 << 20
	maxSnapshotBytes = 1 << 28
)

// Errors returned by the WAL.
var (
	// ErrTornRecord is returned when a record's framing does not
	// verify: truncated mid-record, a length field beyond the caps, a
	// CRC mismatch, an unknown kind byte, or a payload that is not a
	// record. Replay drops the record and everything after it — the
	// torn tail a crash mid-append leaves behind.
	ErrTornRecord = errors.New("store: torn WAL record")
	// ErrNotWAL is returned when a file's magic identifies it as
	// something other than a PTYWAL log (or PTYSNP snapshot, either version) — the
	// store refuses to guess at foreign files.
	ErrNotWAL = errors.New("store: not a WAL file")
)

// walRecord is the JSON payload of every record kind; which fields are
// meaningful depends on the kind.
type walRecord struct {
	SubmitRecord
	Iter     int       `json:"iter,omitempty"`
	Cost     float64   `json:"cost,omitempty"`
	Path     string    `json:"path,omitempty"`
	Total    int       `json:"total,omitempty"`
	State    string    `json:"state,omitempty"`
	Error    string    `json:"error,omitempty"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// IterCost is one entry of a job's recovered cost history.
type IterCost struct {
	Iter int     `json:"i"`
	Cost float64 `json:"c"`
}

// snapState is the payload of a snapshot's 'S' record.
type snapState struct {
	Jobs []JobRecord       `json:"jobs"`
	Keys map[string]string `json:"keys,omitempty"`
	// Histories carries each job's per-iteration costs (parallel to
	// Jobs) so replay after a snapshot stays idempotent.
	Histories [][]IterCost `json:"histories,omitempty"`
}

// replayState is the merged view of the log, updated record by record —
// the same apply path serves live appends (for compaction) and replay
// (for recovery), so what compaction writes is by construction what
// recovery reads.
type replayState struct {
	jobs  map[string]*JobRecord
	order []string
	keys  map[string]string
	costs map[string]map[int]float64 // per-job iteration→cost (dedupes double-apply)
}

func newReplayState() *replayState {
	return &replayState{
		jobs:  make(map[string]*JobRecord),
		keys:  make(map[string]string),
		costs: make(map[string]map[int]float64),
	}
}

// job returns the record for id, creating it on first sight — records
// can arrive out of submission order (a worker may log start before
// the submitter's goroutine logs submit).
func (st *replayState) job(id string) *JobRecord {
	if j, ok := st.jobs[id]; ok {
		return j
	}
	j := &JobRecord{ID: id, State: "queued"}
	st.jobs[id] = j
	st.order = append(st.order, id)
	return j
}

// apply merges one record into the state. Every record is absolute
// (latest-wins per field), so applying a record twice — possible only
// across a crash-interrupted compaction — is harmless.
func (st *replayState) apply(kind byte, r *walRecord) {
	switch kind {
	case recSubmit:
		j := st.job(r.ID)
		j.Params = r.SubmitRecord.Params
		j.Streaming = r.Streaming
		j.Key = r.Key
		j.ResumedFrom = r.ResumedFrom
		j.RecoveredFrom = r.RecoveredFrom
		j.Dataset = r.Dataset
		j.InitObject = r.InitObject
		j.Created = r.Created
		if r.Key != "" {
			st.keys[r.Key] = r.ID
		}
	case recStart:
		j := st.job(r.ID)
		if j.State == "queued" {
			j.State = "running"
		}
		j.Started = r.Started
	case recIteration:
		j := st.job(r.ID)
		if r.Iter > j.Iter {
			j.Iter = r.Iter
			j.Cost = r.Cost
		}
		m := st.costs[r.ID]
		if m == nil {
			m = make(map[int]float64)
			st.costs[r.ID] = m
		}
		m[r.Iter] = r.Cost
	case recCheckpoint:
		j := st.job(r.ID)
		j.CheckpointPath = r.Path
		j.CheckpointIter = r.Iter
	case recFrames:
		j := st.job(r.ID)
		if r.Total > j.Frames {
			j.Frames = r.Total
		}
	case recEOF:
		st.job(r.ID).EOF = true
	case recFinish:
		j := st.job(r.ID)
		j.State = r.State
		j.Error = r.Error
		j.Finished = r.Finished
	}
}

// load seeds the state from a snapshot payload.
func (st *replayState) load(snap *snapState) {
	for i := range snap.Jobs {
		j := snap.Jobs[i]
		st.jobs[j.ID] = &j
		st.order = append(st.order, j.ID)
		if i < len(snap.Histories) {
			m := make(map[int]float64, len(snap.Histories[i]))
			for _, ic := range snap.Histories[i] {
				m[ic.Iter] = ic.Cost
			}
			st.costs[j.ID] = m
		}
	}
	for k, id := range snap.Keys {
		st.keys[k] = id
	}
}

// snapshot materializes the state into a snapshot payload.
func (st *replayState) snapshot() *snapState {
	snap := &snapState{Keys: st.keys}
	for _, id := range sortedJobIDs(st.order) {
		j := st.jobs[id]
		snap.Jobs = append(snap.Jobs, *j)
		snap.Histories = append(snap.Histories, sortedHistory(st.costs[id]))
	}
	return snap
}

// recovery materializes the state into the form the service consumes.
func (st *replayState) recovery() *Recovery {
	rec := &Recovery{Keys: make(map[string]string, len(st.keys))}
	for k, id := range st.keys {
		if _, ok := st.jobs[id]; ok { // a key may only claim a job that exists
			rec.Keys[k] = id
		}
	}
	for _, id := range sortedJobIDs(st.order) {
		j := *st.jobs[id]
		hist := sortedHistory(st.costs[id])
		j.CostHistory = make([]float64, len(hist))
		for i, ic := range hist {
			j.CostHistory[i] = ic.Cost
		}
		rec.Jobs = append(rec.Jobs, j)
	}
	return rec
}

// sortedJobIDs orders IDs by the numeric suffix the service assigns
// ("job-0042"), falling back to lexicographic for foreign IDs.
func sortedJobIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	num := func(id string) int {
		if i := strings.LastIndexByte(id, '-'); i >= 0 {
			if n, err := strconv.Atoi(id[i+1:]); err == nil {
				return n
			}
		}
		return -1
	}
	sort.SliceStable(out, func(a, b int) bool {
		na, nb := num(out[a]), num(out[b])
		if na != nb {
			return na < nb
		}
		return out[a] < out[b]
	})
	return out
}

func sortedHistory(m map[int]float64) []IterCost {
	out := make([]IterCost, 0, len(m))
	for i, c := range m {
		out = append(out, IterCost{Iter: i, Cost: c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Iter < out[b].Iter })
	return out
}

// --- record framing --------------------------------------------------

// appendFrame encodes one framed record onto buf (zero allocations
// once buf has capacity).
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	return wire.AppendChunk(buf, kind, payload)
}

// ReadRecord reads one framed record from r. It returns io.EOF when r
// is exhausted before a record starts, and ErrTornRecord for every
// framing violation: truncation mid-record, a length outside the caps,
// an unknown kind, or a CRC mismatch. Exported for the fuzzer and the
// property tests — this is the decoder whose failure mode must always
// be "drop the tail cleanly", never a panic or a partial record.
func ReadRecord(r io.Reader) (kind byte, payload []byte, err error) {
	var k [1]byte
	if _, err := io.ReadFull(r, k[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading kind: %v", ErrTornRecord, err)
	}
	kind = k[0]
	switch kind {
	case recSubmit, recStart, recIteration, recCheckpoint, recFrames, recEOF, recFinish, recSnapshot:
	default:
		return 0, nil, fmt.Errorf("%w: unknown kind %q", ErrTornRecord, kind)
	}
	var length int64
	if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
		return 0, nil, fmt.Errorf("%w: reading length: %v", ErrTornRecord, err)
	}
	cap := int64(maxRecordBytes)
	if kind == recSnapshot {
		cap = maxSnapshotBytes
	}
	if length < 0 || length > cap {
		return 0, nil, fmt.Errorf("%w: length %d outside [0, %d]", ErrTornRecord, length, cap)
	}
	// wire.ReadCapped grows as bytes actually arrive, so memory tracks
	// reality, not what a lying length declares.
	payload, rerr := wire.ReadCapped(r, nil, length)
	if rerr != nil {
		return 0, nil, fmt.Errorf("%w: payload truncated: %v", ErrTornRecord, rerr)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: crc truncated: %v", ErrTornRecord, err)
	}
	sum := binary.LittleEndian.Uint32(crcBuf[:])
	if want, ok := wire.Verify(sum, payload); !ok {
		return 0, nil, fmt.Errorf("%w: crc %08x != %08x", ErrTornRecord, sum, want)
	}
	return kind, payload, nil
}

// frameSize is the on-disk size of a record with the given payload.
func frameSize(payload int) int64 { return 1 + 8 + int64(payload) + 4 }

// ReplayWAL decodes a complete PTYWALv2 log from r into
// the recovered state. A torn tail is dropped: the returned Recovery
// holds everything up to the last intact record, Recovery.Torn counts
// the drop, and the error is nil — a crash-torn log is an EXPECTED
// input, not a failure. Only a non-WAL magic returns an error
// (ErrNotWAL). The second return is the byte offset of the end of the
// last intact record — the truncation point for reopening the log.
func ReplayWAL(r io.Reader) (*Recovery, int64, error) {
	st := newReplayState()
	rec := &Recovery{}
	offset, err := replayInto(r, st, rec, walMagic)
	if err != nil {
		return nil, 0, err
	}
	out := st.recovery()
	out.Records, out.Torn = rec.Records, rec.Torn
	return out, offset, nil
}

// replayInto applies records from r (which must open with magic) to
// st, counting into rec. Returns the offset past the last intact
// record.
func replayInto(r io.Reader, st *replayState, rec *Recovery, magic [8]byte) (int64, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if n, err := io.ReadFull(br, m[:]); err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			return 0, nil // empty file: a fresh log
		}
		// A file torn inside its own magic: the creating write never
		// synced. Drop everything.
		rec.Torn++
		return 0, nil
	}
	if m != magic {
		return 0, fmt.Errorf("%w: magic %q", ErrNotWAL, m)
	}
	offset := int64(8)
	for {
		kind, payload, err := ReadRecord(br)
		if errors.Is(err, io.EOF) {
			return offset, nil
		}
		if err != nil {
			rec.Torn++
			return offset, nil // drop the torn tail
		}
		var wr walRecord
		if jerr := json.Unmarshal(payload, &wr); jerr != nil {
			// CRC-valid but not a record: corruption beyond framing.
			rec.Torn++
			return offset, nil
		}
		if kind == recSnapshot {
			var snap snapState
			if jerr := json.Unmarshal(payload, &snap); jerr != nil {
				rec.Torn++
				return offset, nil
			}
			st.load(&snap)
		} else {
			st.apply(kind, &wr)
		}
		rec.Records++
		offset += frameSize(len(payload))
	}
}

// --- the durable store ----------------------------------------------

// WALConfig configures a WAL store.
type WALConfig struct {
	// Dir is the state directory: the log, the snapshot and every
	// spooled dataset live here.
	Dir string
	// FS is the filesystem seam; nil selects the real filesystem.
	FS faultfs.FS
	// CompactEvery is the number of appended records between snapshot
	// compactions. Default 4096.
	CompactEvery int
}

// WAL is the durable Store: every transition append-logged, datasets
// and streams spooled beside the log, snapshots on a record budget.
type WAL struct {
	fs  faultfs.FS
	dir string

	mu        sync.Mutex
	file      faultfs.File // open append handle on the log
	state     *replayState
	recovered *Recovery
	spools    map[string]faultfs.File // open stream-spool handles
	sinceComp int
	compEvery int
	closed    bool

	records, syncs, compactions, walBytes int64

	// scratch is the record-framing buffer reused across appends,
	// guarded by mu.
	scratch []byte

	// syncObs, when set, receives the wall-clock duration of each log
	// fsync (see SetSyncObserver).
	syncObs func(time.Duration)
}

var _ Store = (*WAL)(nil)

// OpenWAL opens (or initializes) the state directory: loads the
// snapshot if present, replays the log, truncates any torn tail, and
// readies the log for appends. The replayed state is available from
// Recover.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: WAL needs a state directory")
	}
	fs := cfg.FS
	if fs == nil {
		fs = faultfs.OS{}
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4096
	}
	if err := fs.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: creating state dir: %w", err)
	}
	w := &WAL{
		fs: fs, dir: cfg.Dir,
		state:     newReplayState(),
		spools:    make(map[string]faultfs.File),
		compEvery: cfg.CompactEvery,
	}
	rec := &Recovery{}

	// A tmp snapshot is a compaction that never completed its rename —
	// stale by definition.
	fs.Remove(w.snapPath() + ".tmp")

	// Snapshot first: it is the compacted prefix of the log.
	if f, err := fs.Open(w.snapPath()); err == nil {
		_, rerr := replayInto(f, w.state, rec, snapMagic)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("store: reading snapshot: %w", rerr)
		}
	}

	// Then the log tail. Track the end of the last intact record so a
	// torn tail can be truncated away before new appends land.
	offset := int64(0)
	fresh := true
	if f, err := fs.Open(w.walPath()); err == nil {
		fresh = false
		offset, err = replayInto(f, w.state, rec, walMagic)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: replaying WAL: %w", err)
		}
	}
	if fresh || offset == 0 {
		// No log, or one torn inside its own magic: start clean.
		f, err := fs.Create(w.walPath())
		if err != nil {
			return nil, fmt.Errorf("store: creating WAL: %w", err)
		}
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: writing WAL magic: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing WAL magic: %w", err)
		}
		w.file = f
		w.walBytes = 8
	} else {
		if size, err := fs.Size(w.walPath()); err == nil && size > offset {
			if err := fs.Truncate(w.walPath(), offset); err != nil {
				return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
			}
		}
		f, err := fs.OpenAppend(w.walPath())
		if err != nil {
			return nil, fmt.Errorf("store: opening WAL for append: %w", err)
		}
		w.file = f
		w.walBytes = offset
	}

	w.recovered = w.state.recovery()
	w.recovered.Records, w.recovered.Torn = rec.Records, rec.Torn
	return w, nil
}

func (w *WAL) walPath() string  { return filepath.Join(w.dir, "jobs.wal") }
func (w *WAL) snapPath() string { return filepath.Join(w.dir, "jobs.snap") }

// StreamPath returns the spool path of a streaming job's frame journal.
func (w *WAL) StreamPath(id string) string { return filepath.Join(w.dir, id+".ptychs") }

func (w *WAL) initObjectPath(id string) string { return filepath.Join(w.dir, id+".init.objck") }

func (w *WAL) Durable() bool { return true }

// Recover returns the state replayed when the store was opened.
func (w *WAL) Recover() (*Recovery, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recovered, nil
}

// append logs one record, optionally syncing, and compacts on the
// record budget.
func (w *WAL) append(kind byte, rec *walRecord, sync bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: WAL closed")
	}
	w.scratch = appendFrame(w.scratch[:0], kind, payload)
	frame := w.scratch
	if _, err := w.file.Write(frame); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	w.walBytes += int64(len(frame))
	w.records++
	w.state.apply(kind, rec)
	if sync {
		if err := w.syncLocked(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
	}
	w.sinceComp++
	if w.sinceComp >= w.compEvery {
		if err := w.compactLocked(); err != nil {
			return fmt.Errorf("store: compacting: %w", err)
		}
	}
	return nil
}

// compactLocked folds the merged state into the snapshot and resets the
// log. Callers hold w.mu.
func (w *WAL) compactLocked() error {
	payload, err := json.Marshal(w.state.snapshot())
	if err != nil {
		return err
	}
	tmp := w.snapPath() + ".tmp"
	f, err := w.fs.Create(tmp)
	if err != nil {
		return err
	}
	buf := append([]byte(nil), snapMagic[:]...)
	buf = appendFrame(buf, recSnapshot, payload)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		w.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		w.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := w.fs.Rename(tmp, w.snapPath()); err != nil {
		w.fs.Remove(tmp)
		return err
	}
	// The snapshot is durable; resetting the log can now tear without
	// losing state (the crash window replays snapshot + old log, and
	// double-apply is harmless — records are absolute).
	w.file.Close()
	f, err = w.fs.Create(w.walPath())
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.file = f
	w.walBytes = 8
	w.sinceComp = 0
	w.compactions++
	return nil
}

func (w *WAL) LogSubmit(rec SubmitRecord) error {
	return w.append(recSubmit, &walRecord{SubmitRecord: rec}, true)
}

func (w *WAL) LogStart(id string, started time.Time) error {
	return w.append(recStart, &walRecord{SubmitRecord: SubmitRecord{ID: id}, Started: started}, false)
}

func (w *WAL) LogIteration(id string, iter int, cost float64) error {
	return w.append(recIteration, &walRecord{SubmitRecord: SubmitRecord{ID: id}, Iter: iter, Cost: cost}, false)
}

func (w *WAL) LogCheckpoint(id, path string, iter int) error {
	return w.append(recCheckpoint, &walRecord{SubmitRecord: SubmitRecord{ID: id}, Path: path, Iter: iter}, true)
}

func (w *WAL) LogFrames(id string, total int) error {
	return w.append(recFrames, &walRecord{SubmitRecord: SubmitRecord{ID: id}, Total: total}, false)
}

func (w *WAL) LogEOF(id string) error {
	return w.append(recEOF, &walRecord{SubmitRecord: SubmitRecord{ID: id}}, true)
}

func (w *WAL) LogFinish(id, state, errMsg string, finished time.Time) error {
	return w.append(recFinish, &walRecord{
		SubmitRecord: SubmitRecord{ID: id},
		State:        state, Error: errMsg, Finished: finished,
	}, true)
}

// SpoolUpload writes an upload spool beside the log, synced: a record
// naming the path only follows, so a referenced dataset is complete.
func (w *WAL) SpoolUpload(fill func(io.Writer) error) (string, error) {
	return spoolUpload(w.fs, w.dir, true, fill)
}

// SpoolDataset spools a problem through SpoolUpload; id plays no part.
func (w *WAL) SpoolDataset(_ string, prob *solver.Problem) (string, error) {
	return w.SpoolUpload(func(f io.Writer) error { return dataio.Write(f, prob) })
}

func (w *WAL) SpoolInitObject(id string, slices []*grid.Complex2D) (string, error) {
	if slices == nil {
		return "", nil
	}
	path := w.initObjectPath(id)
	if err := w.WriteCheckpoint(path, slices); err != nil {
		return "", fmt.Errorf("store: spooling warm-start object: %w", err)
	}
	return path, nil
}

// SpoolStreamOpen creates the job's frame journal with its PTYCHS
// opening and keeps the handle for appends.
func (w *WAL) SpoolStreamOpen(id string, hdr *dataio.StreamHeader) (string, error) {
	path := w.StreamPath(id)
	f, err := w.fs.Create(path)
	if err != nil {
		return "", fmt.Errorf("store: opening stream spool: %w", err)
	}
	if err := dataio.WriteStreamHeader(f, hdr); err != nil {
		f.Close()
		return "", fmt.Errorf("store: spooling stream opening: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("store: syncing stream opening: %w", err)
	}
	w.mu.Lock()
	if old := w.spools[id]; old != nil {
		old.Close()
	}
	w.spools[id] = f
	w.mu.Unlock()
	return path, nil
}

// spoolHandle returns the open journal handle for id, reopening it in
// append mode after a recovery (the recovered incarnation continues the
// original journal).
func (w *WAL) spoolHandle(id string) (faultfs.File, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if f := w.spools[id]; f != nil {
		return f, nil
	}
	f, err := w.fs.OpenAppend(w.StreamPath(id))
	if err != nil {
		return nil, err
	}
	w.spools[id] = f
	return f, nil
}

// SpoolFrames appends one CRC-framed chunk to the journal and syncs:
// once the producer's chunk is acknowledged, the frames are committed.
func (w *WAL) SpoolFrames(id string, windowN int, frames []dataio.Frame) error {
	f, err := w.spoolHandle(id)
	if err != nil {
		return fmt.Errorf("store: opening stream spool: %w", err)
	}
	if err := dataio.WriteFrameChunk(f, windowN, frames); err != nil {
		return fmt.Errorf("store: spooling frames: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: syncing spooled frames: %w", err)
	}
	return nil
}

func (w *WAL) SpoolStreamEOF(id string) error {
	f, err := w.spoolHandle(id)
	if err != nil {
		return fmt.Errorf("store: opening stream spool: %w", err)
	}
	if err := dataio.WriteEOFChunk(f); err != nil {
		return fmt.Errorf("store: spooling stream EOF: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: syncing stream EOF: %w", err)
	}
	return nil
}

func (w *WAL) OpenDataset(path string) (io.ReadCloser, error) { return w.fs.Open(path) }

func (w *WAL) LoadObject(path string) ([]*grid.Complex2D, error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return dataio.ReadObject(f)
}

// LoadStream replays a frame journal: the opening, then every intact
// chunk. A torn tail chunk — the crash landed mid-append, before the
// producer's chunk was acknowledged — is dropped, exactly like a torn
// WAL record.
func (w *WAL) LoadStream(path string) (*dataio.StreamHeader, []dataio.Frame, bool, error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	// One shared bufio.Reader serves both stages: the journal's chunks
	// may be a few frames each, and both readers take exact sizes, so
	// the opening swallows no chunk bytes.
	br := bufio.NewReader(f)
	hdr, err := dataio.ReadStreamHeader(br)
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: reading stream spool opening: %w", err)
	}
	var frames []dataio.Frame
	eof := false
	for {
		chunk, isEOF, err := dataio.ReadChunk(br, hdr.WindowN)
		if err != nil {
			break // clean end of journal, or a torn tail chunk: keep what verified
		}
		if isEOF {
			eof = true
			break
		}
		frames = append(frames, chunk...)
	}
	return hdr, frames, eof, nil
}

// WriteCheckpoint writes an OBJCKv1 object atomically through the
// filesystem seam: tmp, write, SYNC, rename. The sync before rename is
// what the pre-store path skipped — without it a crash shortly after
// rename can leave a complete-looking file with unwritten pages.
func (w *WAL) WriteCheckpoint(path string, slices []*grid.Complex2D) error {
	return writeFileAtomic(w.fs, path, true, func(f faultfs.File) error {
		return dataio.WriteObject(f, slices)
	})
}

// Remove deletes a file through the filesystem seam (so fault injection
// sees the removal too).
func (w *WAL) Remove(path string) error { return w.fs.Remove(path) }

// writeFileAtomic writes path through fs as tmp, fill, sync (when
// asked), rename: the name only ever holds a whole file.
func writeFileAtomic(fs faultfs.FS, path string, sync bool, fill func(faultfs.File) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err = fill(f); err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
	}
	return err
}

// spoolUpload spools one upload under a name of its own — the upload's,
// not a job's, so a spool is whole before any job that reads it exists.
func spoolUpload(fs faultfs.FS, dir string, sync bool, fill func(io.Writer) error) (string, error) {
	path := filepath.Join(dir, "upload-"+rand.Text()+".ptycho")
	if err := writeFileAtomic(fs, path, sync, func(f faultfs.File) error { return fill(f) }); err != nil {
		return "", fmt.Errorf("store: spooling upload: %w", err)
	}
	return path, nil
}

// Sync flushes the log tail to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	return nil
}

// syncLocked fsyncs the log and reports the latency to the observer.
// Callers hold w.mu.
func (w *WAL) syncLocked() error {
	start := time.Now()
	if err := w.file.Sync(); err != nil {
		return err
	}
	w.syncs++
	if w.syncObs != nil {
		w.syncObs(time.Since(start))
	}
	return nil
}

// SetSyncObserver installs a callback that receives the duration of
// every subsequent log fsync — the jobs service feeds it into its
// WAL-latency histogram. Call before the store sees concurrent use;
// nil removes the observer.
func (w *WAL) SetSyncObserver(fn func(time.Duration)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncObs = fn
}

func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{Records: w.records, Syncs: w.syncs, Compactions: w.compactions, WALBytes: w.walBytes}
}

// Close flushes and releases every handle. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var first error
	if err := w.file.Sync(); err != nil && first == nil {
		first = err
	}
	if err := w.file.Close(); err != nil && first == nil {
		first = err
	}
	for _, f := range w.spools {
		f.Close()
	}
	w.spools = nil
	return first
}
