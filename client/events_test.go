package client_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ptychopath/client"
)

// sseServer answers every request with one SSE message whose data line
// is data, then ends the feed.
func sseServer(t *testing.T, event, data string) *client.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEventsLargeInfoLine: the reader starts small and grows, so an
// event on one 512 KB data line still decodes.
func TestEventsLargeInfoLine(t *testing.T) {
	const n = 128 << 10 // "0.5," is 4 bytes: a 512 KB history
	data := `{"id":"job-0001","cost_history":[` + strings.Repeat("0.5,", n-1) + `0.5]}`
	es, err := sseServer(t, "info", data).Events(context.Background(), "job-0001")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	e, err := es.Next()
	if err != nil {
		t.Fatalf("a %d-byte data line: %v", len(data), err)
	}
	if e.Type != "info" || e.Info == nil || e.Job != "job-0001" || len(e.Info.CostHistory) != n {
		t.Fatalf("decoded %q event for %q with %d costs, want info for job-0001 with %d", e.Type, e.Job, len(e.Info.CostHistory), n)
	}
	if _, err := es.Next(); err != io.EOF {
		t.Fatalf("after the last event: %v, want io.EOF", err)
	}
}

// TestEventsLineOverCapFails: a data line past the reader's 1 MB cap
// fails the stream instead of growing the buffer without bound.
func TestEventsLineOverCapFails(t *testing.T) {
	data := `{"type":"state","job":"` + strings.Repeat("x", 1<<20) + `"}`
	es, err := sseServer(t, "state", data).Events(context.Background(), "job-0001")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if _, err := es.Next(); err == nil || err == io.EOF || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("a %d-byte data line: %v, want the reader's token-too-long error", len(data), err)
	}
}
