package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// EventStream decodes a job's Server-Sent-Events live feed
// (GET /v1/jobs/{id}/events) into typed Events. Close it when done;
// cancelling the context passed to Events also ends the stream.
type EventStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Events opens the job's live feed. The server sends an "info" event
// with the full summary first (Event.Info), then one event per
// iteration, ingest acceptance, fold, snapshot and state transition;
// the feed closes after the terminal state event.
func (c *Client) Events(ctx context.Context, id string) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		return nil, &Error{Status: resp.StatusCode, Code: CodeInternal,
			Detail: fmt.Sprintf("events endpoint answered %q, not an SSE feed", ct)}
	}
	// Events are a few hundred bytes: start at bufio's default buffer
	// and let a longer line grow it, up to 1 MB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	return &EventStream{body: resp.Body, sc: sc}, nil
}

// Next blocks for the next event. It returns io.EOF when the feed ends
// with the job (after the final "state" event).
func (s *EventStream) Next() (Event, error) {
	var event, data string
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if event == "" && data == "" {
				continue // heartbeat / separator run
			}
			return decodeEvent(event, data)
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case strings.HasPrefix(line, ":"):
			// comment/heartbeat — ignore
		}
	}
	if err := s.sc.Err(); err != nil {
		return Event{}, fmt.Errorf("client: reading event stream: %w", err)
	}
	if event != "" || data != "" {
		// Feed ended mid-message without the closing blank line.
		return decodeEvent(event, data)
	}
	return Event{}, io.EOF
}

func decodeEvent(event, data string) (Event, error) {
	e := Event{Type: event}
	if event == "info" {
		// The info event's payload is the job summary itself.
		e.Info = &Job{}
		if err := json.Unmarshal([]byte(data), e.Info); err != nil {
			return Event{}, fmt.Errorf("client: decoding info event %q: %w", data, err)
		}
		e.Job = e.Info.ID
		return e, nil
	}
	if err := json.Unmarshal([]byte(data), &e); err != nil {
		return Event{}, fmt.Errorf("client: decoding %q event %q: %w", event, data, err)
	}
	if e.Type == "" {
		e.Type = event
	}
	return e, nil
}

// Close ends the feed.
func (s *EventStream) Close() error { return s.body.Close() }
