package jobs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"

	"ptychopath/internal/dataio"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

// Dataset is a batch dataset as the service holds it: the geometry
// validation, scheduling and sharding read, and the upload's spool.
type Dataset struct {
	geom *solver.Problem // nil for a job restored from the log
	path string
}

// newDataset keeps Scan's geometry; the measurements and probe stay at path.
func newDataset(hdr *dataio.StreamHeader, locs []scan.Location, path string) *Dataset {
	geom := hdr.NewProblem()
	geom.Probe, geom.Prop, geom.Pattern.Locations = nil, nil, locs
	return &Dataset{geom: geom, path: path}
}

// SpoolDataset checks a closed PTYCHS stream from r as it arrives and
// spools what passes in a file named for the upload, for SubmitDataset
// or DiscardDataset. A rejected stream is ErrInvalidParams.
func (s *Service) SpoolDataset(r io.Reader) (*Dataset, error) {
	var hdr *dataio.StreamHeader
	var locs []scan.Location
	var rejected error
	path, err := s.store.SpoolUpload(func(w io.Writer) error {
		bw := bufio.NewWriter(w) // latches a failed write for Flush
		var err error
		hdr, locs, err = dataio.Scan(bw, r)
		if ferr := bw.Flush(); ferr != nil {
			return ferr // the spool failed, not the upload
		} else if err != nil {
			rejected = fmt.Errorf("%w: dataset: %w", ErrInvalidParams, err)
		}
		return err
	})
	if err != nil {
		return nil, cmp.Or(rejected, err) // the upload's fault, else the spool's
	}
	return newDataset(hdr, locs, path), nil
}

// SubmitDataset is SubmitWithKey on a spooled dataset, which is the
// service's from here on: a rejected or replayed submission removes it.
func (s *Service) SubmitDataset(ds *Dataset, p Params, key string) (*Job, bool, error) {
	j, created, err := s.submit(ds, p, "", key)
	if err != nil || !created {
		s.DiscardDataset(ds)
	}
	return j, created, err
}

// DiscardDataset removes the spool of a dataset never submitted.
func (s *Service) DiscardDataset(ds *Dataset) { s.store.Remove(ds.path) }

// readSpool runs read over the spool at path.
func (s *Service) readSpool(path string, read func(io.Reader) error) error {
	f, err := s.store.OpenDataset(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(f)
}

// scanSpool reads a spool's geometry back, decoding no measurement.
func (s *Service) scanSpool(path string) (ds *Dataset, err error) {
	err = s.readSpool(path, func(r io.Reader) error {
		hdr, locs, err := dataio.Scan(io.Discard, r)
		if err == nil {
			ds = newDataset(hdr, locs, path)
		}
		return err
	})
	return ds, err
}
