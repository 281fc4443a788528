package client_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ptychopath/client"
)

// TestClientSubmitRetrySendsTheSameBytes: a submission rejected with a
// 429 after the server read half its body goes out again byte for byte,
// from a *bytes.Reader and from an *os.File alike — each attempt through
// its own section reader — and leaves the caller's offset where it was.
func TestClientSubmitRetrySendsTheSameBytes(t *testing.T) {
	dataset := make([]byte, 200_000)
	rand.New(rand.NewSource(1)).Read(dataset)
	path := filepath.Join(t.TempDir(), "ds.ptycho")
	if err := os.WriteFile(path, dataset, 0o600); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, r := range map[string]io.ReadSeeker{"bytes.Reader": bytes.NewReader(dataset), "os.File": file} {
		var mu sync.Mutex
		var bodies [][]byte
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			mu.Lock()
			first := len(bodies) == 0
			mu.Unlock()
			body := make([]byte, len(dataset)/2)
			if first {
				io.ReadFull(req.Body, body)
			} else {
				body, _ = io.ReadAll(req.Body)
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
			if first {
				w.Header().Set("Content-Type", "application/problem+json")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"type":"urn:ptychopath:problem:queue_full","title":"Too Many Requests",`+
					`"status":429,"code":"queue_full","retry_after_ms":10}`)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"job-0001","state":"queued"}`)
		}))
		c, err := client.New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Submit(context.Background(), client.SubmitRequest{Algorithm: "serial"}, r)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(bodies) != 2 {
			t.Fatalf("%s: the server saw %d attempts, want 2", name, len(bodies))
		}
		if !bytes.HasPrefix(bodies[1], bodies[0]) || !bytes.Contains(bodies[1], dataset) {
			t.Errorf("%s: the retry did not send the first attempt's bytes and the whole dataset", name)
		}
		if off, err := r.Seek(0, io.SeekCurrent); off != 0 || err != nil {
			t.Errorf("%s: Submit left the dataset at offset %d (err %v), want 0", name, off, err)
		}
	}
}
