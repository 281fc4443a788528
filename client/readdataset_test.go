package client

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestReadDatasetOneBuffer: a dataset handed over by a reader that
// knows its size is read into one buffer of that size, not through
// io.ReadAll's doubling; a reader that does not still reads to its end.
// The budget is n + 4 KB, plus the page (8 KB) the allocator rounds a
// large buffer up to.
func TestReadDatasetOneBuffer(t *testing.T) {
	data := bytes.Repeat([]byte("ptychography "), 400_000) // 5.2 MB, the grid-setup upload
	path := filepath.Join(t.TempDir(), "ds.ptycho")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	half := bytes.NewReader(data)
	if _, err := half.Seek(int64(len(data)/2), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		r     io.Reader
		want  []byte
		sized bool
	}{
		"bytes.Reader":       {bytes.NewReader(data), data, true},
		"bytes.Buffer":       {bytes.NewBuffer(bytes.Clone(data)), data, true},
		"strings.Reader":     {strings.NewReader(string(data)), data, true},
		"os.File":            {file, data, true},
		"half-read reader":   {half, data[len(data)/2:], true},
		"reader of no size":  {io.MultiReader(bytes.NewReader(data)), data, false},
		"empty bytes.Reader": {bytes.NewReader(nil), nil, true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readDataset(tc.r)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: read %d bytes (err %v), want %d", name, len(got), err, len(tc.want))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; tc.sized && alloc > uint64(len(tc.want))+4096+8192 {
			t.Errorf("%s: allocated %d B to read %d B (budget n + 4 KB + a page)", name, alloc, len(tc.want))
		}
	}
}
