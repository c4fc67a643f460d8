package fleet

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"arthas/internal/obs"
)

// Shards publish their telemetry at the end of each request, under the shard
// lock, into recorders that /metrics scrapes from another goroutine at any
// moment. Run with -race -count=10: two clients drive both shards while a
// third goroutine scrapes MergedMetrics and the HTTP endpoint; every scrape
// must see counters that only grow, and the final one the layers' tallies.
func TestMetricsScrapeDuringTraffic(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	srv := httptest.NewServer(obs.NewFleetMux(f.MergedMetrics, f.Health))
	defer srv.Close()

	const opsPerClient = 400
	var clients sync.WaitGroup
	for c := int64(0); c < 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := int64(0); i < opsPerClient; i++ {
				k := c*1000 + i%37
				if err := f.Put(k, i); err != nil {
					t.Errorf("put(%d): %v", k, err)
					return
				}
				if v, err := f.Get(k); err != nil || v != i {
					t.Errorf("get(%d) = %d, %v; want %d", k, v, err, i)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { clients.Wait(); close(done) }()

	var lastLoads, scrapes int64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false // one last scrape after the traffic stops
		default:
		}
		loads := f.MergedMetrics().CounterValue("pmem.load")
		if loads < lastLoads {
			t.Fatalf("pmem.load went from %d to %d between scrapes", lastLoads, loads)
		}
		lastLoads = loads
		resp, err := srv.Client().Get(srv.URL + "/metrics?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !strings.Contains(string(body), "arthas_fleet_req ") {
			t.Fatalf("/metrics: status %d, body %q", resp.StatusCode, body)
		}
		scrapes++
	}

	var want uint64
	for _, s := range f.shards {
		s.mu.Lock()
		want += s.inst.Pool.Stats().Loads
		s.mu.Unlock()
	}
	if got := f.MergedMetrics().CounterValue("pmem.load"); got != int64(want) || want == 0 {
		t.Fatalf("merged pmem.load = %d, the shards' pools tallied %d", got, want)
	}
	if got := f.MergedMetrics().CounterValue("fleet.req"); got != 2*2*opsPerClient {
		t.Fatalf("fleet.req = %d, want %d", got, 2*2*opsPerClient)
	}
	t.Logf("%d scrapes during %d requests", scrapes, 2*2*opsPerClient)
}
