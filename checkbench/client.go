package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// clients is the closed loop's size: one client per core of the 2-core
// machine the benchmark was defined on.
const clients = 2

// outcome is what one request of a run came back with.
type outcome struct {
	req       request
	id        string // the X-Request-Id it was sent with
	status    int    // 0 = transport error
	lat       time.Duration
	done      time.Duration // completion time, from the start of the run
	sig       uint64        // verdict signature of a 200 response
	badBody   bool          // a 200 whose body did not decode
	ok        bool          // a 200 with the right verdict (set by verify)
	cached    bool
	forwarded bool // answered by the owner replica (X-Fleet-Owner set)
}

// completed reports whether the request got an HTTP response.
func (o *outcome) completed() bool { return o.status != 0 }

// drive runs a closed loop of clients: each sends its next request only
// once the previous one has completed, until d has passed or the stream
// ends. after, when non-nil, runs on the client's goroutine after each
// request, outside the request's latency. It returns every outcome and
// the wall time until the last client stopped.
func drive(s *stream, addrs []string, d time.Duration, after func(c int, o *outcome)) ([]outcome, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	per := make([][]outcome, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				req, ok := s.next()
				if !ok {
					return
				}
				o := send(hc, addrs[req.entry], req, fmt.Sprintf("cb%d-%d", c, n))
				o.done = time.Since(start)
				if after != nil {
					after(c, &o)
				}
				o.req = o.req.slim()
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// send issues one request under the given request id and times it from
// before the request is written until its whole response body has been
// read.
func send(hc *http.Client, addr string, req request, id string) outcome {
	o := outcome{req: req, id: id}
	hreq, err := http.NewRequest(http.MethodPost, "http://"+addr+req.path(), bytes.NewReader(req.body))
	if err != nil {
		return o
	}
	hreq.Header.Set("X-Request-Id", id)
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.lat = time.Since(t0)
	if err != nil {
		return o
	}
	o.status = resp.StatusCode
	o.forwarded = resp.Header.Get("X-Fleet-Owner") != ""
	if o.status == http.StatusOK {
		var err error
		if o.sig, o.cached, err = responseSignature(req.kind, body); err != nil {
			o.badBody = true
		}
	}
	return o
}

// verify compares every 200 response with the oracle's verdict, computing
// the verdicts not yet known with clients workers after the run. It
// returns the failed count (non-200, transport error, or wrong verdict)
// and how many of those were wrong verdicts.
func verify(outs []outcome, o *oracle) (failed, wrong int) {
	work := make(chan request)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				o.entry(req)
			}
		}()
	}
	for i := range outs {
		if outs[i].status == http.StatusOK {
			work <- outs[i].req
		}
	}
	close(work)
	wg.Wait()
	for i := range outs {
		out := &outs[i]
		switch {
		case out.status != http.StatusOK:
			failed++
		case out.badBody:
			failed++
			wrong++
		default:
			if sig, err := o.expect(out.req); err != nil || sig != out.sig {
				failed++
				wrong++
			} else {
				out.ok = true
			}
		}
	}
	return failed, wrong
}

// windows splits a run of length d into n equal windows and returns each
// window's rate of correct responses per second and median latency in
// milliseconds. Completions after d count in the last window.
func windows(outs []outcome, d time.Duration, n int) (rates, p50s []float64) {
	lats := make([][]float64, n)
	oks := make([]int, n)
	for i := range outs {
		o := &outs[i]
		if !o.completed() {
			continue
		}
		w := min(int(o.done*time.Duration(n)/d), n-1)
		lats[w] = append(lats[w], float64(o.lat)/float64(time.Millisecond))
		if o.ok {
			oks[w]++
		}
	}
	for w := 0; w < n; w++ {
		rates = append(rates, float64(oks[w])/(d.Seconds()/float64(n)))
		p50s = append(p50s, median(lats[w]))
	}
	return rates, p50s
}
