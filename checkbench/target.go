package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// fleetReplicas is the fleet size of the fleet workloads; grayReplica is
// the replica whose data plane fleet-gray slows by grayDelay.
const (
	fleetReplicas = 3
	grayReplica   = 1
	grayDelay     = 200 * time.Millisecond
	readyTimeout  = 60 * time.Second
)

// target is the system under test: one checkd server or a replica fleet,
// serving over loopback HTTP.
type target interface {
	addrs() []string
	counters() (counters, error)
	close()
}

// counters are the program's public counters the benchmark reads, summed
// over replicas.
type counters struct {
	hits, misses                                    uint64
	forwards, localFallbacks, hedgesFired, hedgeWin int64
	breakerOpens, budgetExhausted, aePulled         int64
	records, commits                                int64
}

func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		forwards: c.forwards - o.forwards, localFallbacks: c.localFallbacks - o.localFallbacks,
		hedgesFired: c.hedgesFired - o.hedgesFired, hedgeWin: c.hedgeWin - o.hedgeWin,
		breakerOpens: c.breakerOpens - o.breakerOpens, budgetExhausted: c.budgetExhausted - o.budgetExhausted,
		aePulled: c.aePulled - o.aePulled, records: c.records - o.records, commits: c.commits - o.commits,
	}
}

// single is one checkd: a service.Server with checkd's default
// configuration behind an http.Server, as `checkd` runs with no flags.
type single struct {
	srv  *service.Server
	hs   *http.Server
	addr string
}

func startSingle() (*single, error) {
	srv := service.New(service.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &single{srv: srv, hs: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}, addr: ln.Addr().String()}
	go func() { _ = s.hs.Serve(ln) }() // Serve returns when close shuts the listener
	if err := awaitReady(s.addr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *single) addrs() []string { return []string{s.addr} }

func (s *single) counters() (counters, error) {
	h, m := s.srv.CacheStats()
	return counters{hits: h, misses: m}, nil
}

func (s *single) close() {
	_ = s.hs.Close()
	s.srv.Close()
}

// awaitReady polls GET /readyz until it answers 200.
func awaitReady(addr string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetTarget is an in-process replica fleet with fleet.New's defaults
// and a journal per replica.
type fleetTarget struct {
	f *fleet.Fleet
}

func startFleet() (*fleetTarget, error) {
	f, err := fleet.New(fleet.Config{Replicas: fleetReplicas, Journal: true})
	if err != nil {
		return nil, err
	}
	if !f.AwaitReady(readyTimeout) {
		f.Close()
		return nil, errors.New("fleet replicas never became ready")
	}
	return &fleetTarget{f: f}, nil
}

func (t *fleetTarget) addrs() []string { return t.f.HTTPAddrs() }

// counters sums each replica's Replica.Status and the journal counters
// of its GET /metrics.
func (t *fleetTarget) counters() (counters, error) {
	var c counters
	for i := 0; i < t.f.Replicas(); i++ {
		rp := t.f.Replica(i)
		st := rp.Status()
		c.hits += st.CacheHits
		c.misses += st.CacheMisses
		c.forwards += st.Forwards
		c.localFallbacks += st.LocalFallbacks
		c.hedgesFired += st.HedgesFired
		c.hedgeWin += st.HedgeLocalWins
		c.breakerOpens += st.BreakerOpens
		c.budgetExhausted += st.BudgetExhausted
		c.aePulled += st.AEPulled
		m, err := fetchMetrics(rp.HTTPAddr())
		if err != nil {
			return c, err
		}
		if m.Journal != nil {
			c.records += m.Journal.Records
			c.commits += m.Journal.Commits
		}
	}
	return c, nil
}

func (t *fleetTarget) close() { t.f.Close() }

func fetchMetrics(addr string) (*service.MetricsSnapshot, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics: %w", addr, err)
	}
	return &m, nil
}
