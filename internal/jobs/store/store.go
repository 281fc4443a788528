// Package store is the durability layer of the job service: a Store
// interface over everything internal/jobs persists — job lifecycle
// transitions, idempotency-key claims, submitted datasets (closed
// PTYCHS streams), streamed frames (open ones), and OBJCKv1 checkpoints
// — with two implementations.
//
// Mem is the historical in-memory behavior: nothing survives the
// process, uploads and checkpoints go straight to the spool directory
// unsynced, and every log call is a no-op.
//
// WAL (wal.go) append-logs every transition as CRC-32-framed,
// length-prefixed records (PTYWALv2 — the house framing style of
// PTYCHS chunks and PTGW wire frames), spools datasets and stream
// frames beside the log, periodically compacts the log into a snapshot
// (PTYSNPv2) plus tail, and on reopen replays everything back into a
// Recovery the service re-enqueues interrupted jobs from. All file I/O
// goes through the faultfs seam, so the crash tests can kill the store
// at any byte and prove recovery is exact.
package store

import (
	"encoding/json"
	"io"
	"os"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/grid"
	"ptychopath/internal/jobs/store/faultfs"
)

// Store is the persistence surface of the job service. Log* methods
// record lifecycle transitions; Spool* methods persist bulk payloads
// (datasets, frames, warm-start objects) and return the path a later
// recovery loads them from; Open/Load* reverse the spooling. Implementations
// must be safe for concurrent use — the service logs from its HTTP
// goroutines and every pool worker.
type Store interface {
	// Durable reports whether the store persists anything. The service
	// uses it to gate recovery metrics and durability error handling.
	Durable() bool

	// Recover returns the state replayed from disk when the store was
	// opened: every job ever logged (merged to its latest state), the
	// idempotency-key claims, and replay statistics. A fresh or
	// in-memory store returns an empty Recovery.
	Recover() (*Recovery, error)

	// LogSubmit records a job entering the registry (and its
	// idempotency-key claim, when Key is non-empty). Durable stores
	// sync before returning: an acknowledged submission survives a
	// crash.
	LogSubmit(rec SubmitRecord) error
	// LogStart records the Queued→Running transition.
	LogStart(id string, started time.Time) error
	// LogIteration records per-iteration progress. High-rate and
	// intentionally unsynced: losing the tail costs progress counters,
	// never correctness (the checkpoint is the durable anchor).
	LogIteration(id string, iter int, cost float64) error
	// LogCheckpoint records a durable OBJCKv1 checkpoint at iter.
	LogCheckpoint(id, path string, iter int) error
	// LogFrames records a streaming job's ingest acceptance (the frames
	// themselves go through SpoolFrames).
	LogFrames(id string, total int) error
	// LogEOF records a streaming job's producer closing the stream.
	LogEOF(id string) error
	// LogFinish records a terminal transition (done, failed,
	// cancelled). Durable stores sync before returning.
	LogFinish(id, state, errMsg string, finished time.Time) error

	// SpoolUpload spools an upload under a name of its own: the path
	// names the whole file fill wrote (synced, by a durable store).
	SpoolUpload(fill func(io.Writer) error) (string, error)
	// SpoolInitObject persists a job's warm-start object (OBJCKv1) and
	// returns its path ("" when slices is nil or the store is not
	// durable).
	SpoolInitObject(id string, slices []*grid.Complex2D) (string, error)
	// SpoolStreamOpen persists a streaming job's PTYCHS opening and
	// returns the spool path frames will be appended to.
	SpoolStreamOpen(id string, hdr *dataio.StreamHeader) (string, error)
	// SpoolFrames appends accepted frames to the job's stream spool and
	// syncs: an acknowledged chunk survives a crash.
	SpoolFrames(id string, windowN int, frames []dataio.Frame) error
	// SpoolStreamEOF appends the end-of-stream marker to the spool.
	SpoolStreamEOF(id string) error

	// OpenDataset opens a spooled dataset for reading.
	OpenDataset(path string) (io.ReadCloser, error)
	// LoadObject reads a spooled or checkpointed OBJCKv1 object.
	LoadObject(path string) ([]*grid.Complex2D, error)
	// LoadStream replays a stream spool: the opening header, every
	// intact frame chunk, and whether the EOF marker was written. A
	// torn tail chunk (crash mid-append) is dropped, mirroring the WAL.
	LoadStream(path string) (*dataio.StreamHeader, []dataio.Frame, bool, error)

	// WriteCheckpoint writes an OBJCKv1 checkpoint atomically (tmp +
	// sync + rename) at path.
	WriteCheckpoint(path string, slices []*grid.Complex2D) error
	// Remove deletes a superseded checkpoint, once the record naming its
	// SUCCESSOR is in the log, or the spool of an upload never submitted.
	Remove(path string) error

	// Sync flushes any buffered log tail to stable storage — the
	// service calls it from Shutdown so a SIGTERM drain leaves nothing
	// unsynced.
	Sync() error
	// Stats reports live store counters for /metrics.
	Stats() Stats
	// Close flushes and releases the store. Idempotent.
	Close() error
}

// SubmitRecord is everything LogSubmit persists about a new job.
type SubmitRecord struct {
	ID string `json:"id"`
	// Params is the service's job parameters, marshaled by the caller
	// (the store is deliberately ignorant of the jobs package).
	Params json.RawMessage `json:"params,omitempty"`
	// Streaming marks a streaming job; Dataset then points at its
	// open PTYCHS spool instead of a closed one.
	Streaming bool `json:"streaming,omitempty"`
	// Key is the idempotency key claimed by this submission, if any.
	Key string `json:"key,omitempty"`
	// ResumedFrom / RecoveredFrom carry job lineage (see jobs.Info).
	ResumedFrom   string `json:"resumed_from,omitempty"`
	RecoveredFrom string `json:"recovered_from,omitempty"`
	// Dataset is the spooled dataset path; InitObject the spooled
	// warm-start object path (resume jobs).
	Dataset    string    `json:"dataset,omitempty"`
	InitObject string    `json:"init_object,omitempty"`
	Created    time.Time `json:"created,omitzero"`
}

// JobRecord is one job's state as merged from the log — the unit of
// recovery. States use the lowercase names of jobs.State.String.
type JobRecord struct {
	ID            string          `json:"id"`
	Params        json.RawMessage `json:"params,omitempty"`
	Streaming     bool            `json:"streaming,omitempty"`
	Key           string          `json:"key,omitempty"`
	ResumedFrom   string          `json:"resumed_from,omitempty"`
	RecoveredFrom string          `json:"recovered_from,omitempty"`
	Dataset       string          `json:"dataset,omitempty"`
	InitObject    string          `json:"init_object,omitempty"`

	State          string    `json:"state"`
	Iter           int       `json:"iter,omitempty"`
	Cost           float64   `json:"cost,omitempty"`
	CostHistory    []float64 `json:"cost_history,omitempty"`
	CheckpointPath string    `json:"checkpoint,omitempty"`
	CheckpointIter int       `json:"checkpoint_iter,omitempty"`
	Frames         int       `json:"frames,omitempty"`
	EOF            bool      `json:"eof,omitempty"`
	Error          string    `json:"error,omitempty"`
	Created        time.Time `json:"created"`
	Started        time.Time `json:"started,omitzero"`
	Finished       time.Time `json:"finished,omitzero"`
}

// Terminal reports whether the record's state is final.
func (r *JobRecord) Terminal() bool {
	return r.State == "done" || r.State == "failed" || r.State == "cancelled"
}

// Recovery is the replayed service state a durable store hands back at
// startup.
type Recovery struct {
	// Jobs holds every job ever logged, in submission (ID) order, each
	// merged to its latest recorded state.
	Jobs []JobRecord `json:"jobs"`
	// Keys maps claimed idempotency keys to the job IDs that own them.
	Keys map[string]string `json:"keys,omitempty"`

	// Replay statistics (not persisted in snapshots).
	Records int `json:"-"` // WAL + snapshot records applied
	Torn    int `json:"-"` // corrupt tail records dropped
}

// Stats are live counters a durable store exposes for /metrics.
type Stats struct {
	// Records is the number of WAL records appended by this process.
	Records int64
	// Syncs is the number of explicit WAL fsyncs.
	Syncs int64
	// Compactions is the number of snapshot compactions performed.
	Compactions int64
	// WALBytes is the current byte size of the WAL tail.
	WALBytes int64
}

// Mem is the non-durable store: every Log call is a no-op, and uploads
// and checkpoints are written unsynced, uploads into Dir.
type Mem struct {
	// Dir receives the upload spools (the service's spool directory).
	Dir string
}

var _ Store = Mem{}

func (Mem) Durable() bool               { return false }
func (Mem) Recover() (*Recovery, error) { return &Recovery{}, nil }

func (Mem) LogSubmit(SubmitRecord) error                      { return nil }
func (Mem) LogStart(string, time.Time) error                  { return nil }
func (Mem) LogIteration(string, int, float64) error           { return nil }
func (Mem) LogCheckpoint(string, string, int) error           { return nil }
func (Mem) LogFrames(string, int) error                       { return nil }
func (Mem) LogEOF(string) error                               { return nil }
func (Mem) LogFinish(string, string, string, time.Time) error { return nil }

func (m Mem) SpoolUpload(fill func(io.Writer) error) (string, error) {
	return spoolUpload(faultfs.OS{}, m.Dir, false, fill)
}

func (Mem) SpoolInitObject(string, []*grid.Complex2D) (string, error)    { return "", nil }
func (Mem) SpoolStreamOpen(string, *dataio.StreamHeader) (string, error) { return "", nil }
func (Mem) SpoolFrames(string, int, []dataio.Frame) error                { return nil }
func (Mem) SpoolStreamEOF(string) error                                  { return nil }

func (Mem) OpenDataset(path string) (io.ReadCloser, error)    { return os.Open(path) }
func (Mem) LoadObject(path string) ([]*grid.Complex2D, error) { return dataio.ReadObjectFile(path) }
func (Mem) LoadStream(string) (*dataio.StreamHeader, []dataio.Frame, bool, error) {
	return nil, nil, false, nil
}

func (Mem) WriteCheckpoint(path string, slices []*grid.Complex2D) error {
	return dataio.WriteObjectFileAtomic(path, slices)
}

func (Mem) Remove(path string) error { return os.Remove(path) }

func (Mem) Sync() error  { return nil }
func (Mem) Stats() Stats { return Stats{} }
func (Mem) Close() error { return nil }
