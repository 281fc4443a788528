package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndGet(t *testing.T) {
	r := NewRecorder()
	r.Add("compute", 2*time.Second)
	r.Add("compute", time.Second)
	r.Add("comm", 500*time.Millisecond)
	if r.Get("compute") != 3*time.Second {
		t.Fatalf("compute = %v", r.Get("compute"))
	}
	if r.Get("missing") != 0 {
		t.Fatal("missing phase must be 0")
	}
	if r.Total() != 3500*time.Millisecond {
		t.Fatalf("total = %v", r.Total())
	}
}

func TestTimeMeasuresFunction(t *testing.T) {
	r := NewRecorder()
	r.Time("sleep", func() { time.Sleep(20 * time.Millisecond) })
	if r.Get("sleep") < 15*time.Millisecond {
		t.Fatalf("sleep phase %v too short", r.Get("sleep"))
	}
}

func TestPhasesOrder(t *testing.T) {
	r := NewRecorder()
	r.Add("b", 1)
	r.Add("a", 1)
	r.Add("b", 1)
	got := r.Phases()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("phases %v", got)
	}
}

func TestConcurrentAdds(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add("p", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if r.Get("p") != 3200*time.Millisecond {
		t.Fatalf("p = %v", r.Get("p"))
	}
}

func TestReportFormat(t *testing.T) {
	r := NewRecorder()
	r.Add("compute", 3*time.Second)
	r.Add("comm", time.Second)
	var sb strings.Builder
	r.Report(&sb, "breakdown")
	out := sb.String()
	for _, want := range []string{"breakdown", "compute", "comm", "total", "75.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Longest phase first.
	if strings.Index(out, "compute") > strings.Index(out, "comm") {
		t.Fatal("phases not sorted by duration")
	}
}
