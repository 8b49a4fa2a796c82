package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// errBreakerOpen is the refusal a gated call gets when the peer's
// breaker is open: the caller already knows the peer is sick, so no
// wire time is spent confirming it.
var errBreakerOpen = errors.New("fleet: peer breaker is open")

// Hedged forwards and deadline-budget propagation: the owner-miss path
// of ServeHTTP. A routed request whose owner is a peer consults the
// peer's breaker first (an open breaker skips the forward entirely),
// ships the *remaining* deadline budget in the RPC so the owner never
// computes past what the client will wait for, and — once the forward
// has been in flight longer than the peer's derived hedge delay —
// races local compute against it and answers with whichever finishes
// first. The forward loser always runs to completion in the
// background: its outcome is what feeds the breaker's failure counter
// and latency tracker, so a slow peer trips the p99 breach even though
// every hedged request stopped waiting for it.

// budgetFloor is the smallest remaining budget worth shipping to an
// owner: below it the hop would spend the whole budget on the wire, so
// the owner refuses (budget_exhausted) and the client computes locally
// with what little remains.
const budgetFloor = 5 * time.Millisecond

// routeToOwner serves one routed request owned by a peer. started is
// when the fleet layer first saw the request; the budget shrinks from
// there.
func (rp *Replica) routeToOwner(svc *service.Server, w http.ResponseWriter, r *http.Request, body []byte, id, owner string, info service.RouteInfo, started time.Time) {
	deadline := started.Add(rp.f.cfg.Service.RequestTimeout(info.TimeoutMS))
	br := rp.peerBreaker(owner)

	allowed, evs := br.allow()
	rp.noteBreakerEvents(owner, evs)
	remaining := deadline.Sub(wallNow())
	if !allowed || remaining <= 0 {
		rp.localFallbacks.Add(1)
		rp.serveLocalBudget(svc, w, r, body, id, deadline)
		return
	}
	fwdTimeout := rp.f.cfg.ForwardTimeout
	if remaining < fwdTimeout {
		fwdTimeout = remaining
	}
	req := rpcRequest{
		Op: "forward", From: rp.id, ID: id, Path: r.URL.Path, Body: body,
		// Round up: a sub-millisecond remainder must not truncate to
		// "no budget declared".
		TimeoutMS: int64((fwdTimeout + time.Millisecond - 1) / time.Millisecond),
	}

	type fwdResult struct {
		reply rpcReply
		err   error
	}
	fwdc := make(chan fwdResult, 1)
	//gcvet:leak-ok bounded by fwdTimeout: the call's I/O deadline forces a return, and the result channel is buffered
	go func() {
		t0 := wallNow()
		reply, err := rp.callPeer(owner, req, fwdTimeout)
		rp.recordForwardOutcome(owner, reply, err, wallNow().Sub(t0))
		fwdc <- fwdResult{reply, err}
	}()

	hd := rp.hedgeDelayFor(br)
	if hd >= 0 {
		timer := time.NewTimer(hd)
		defer timer.Stop()
		select {
		case res := <-fwdc:
			rp.finishForward(svc, w, r, body, id, owner, deadline, res.reply, res.err)
			return
		case <-timer.C:
		}
		// Hedge fires: race local compute against the in-flight forward.
		rp.hedgesFired.Add(1)
		lctx, lcancel := context.WithDeadline(r.Context(), deadline)
		defer lcancel()
		localc := make(chan *responseRecorder, 1)
		//gcvet:leak-ok bounded by the request deadline on lctx, and the result channel is buffered
		go func() {
			rec := &responseRecorder{header: make(http.Header)}
			r2 := r.Clone(lctx)
			r2.Body = io.NopCloser(bytes.NewReader(body))
			r2.ContentLength = int64(len(body))
			r2.Header.Set("X-Request-Id", id)
			svc.ServeHTTP(rec, r2)
			localc <- rec
		}()
		select {
		case res := <-fwdc:
			if res.err == nil && res.reply.OK && !res.reply.BudgetExhausted {
				// Forward wins: cancel the local racer, it has nothing
				// left to contribute.
				rp.hedgeForwardWins.Add(1)
				rp.forwards.Add(1)
				lcancel()
				writeForwardReply(w, id, owner, res.reply)
				return
			}
			// The forward failed after the hedge fired; the local racer
			// is now the only path, and so the race's winner. (Its
			// recorder already holds — or will hold — the answer;
			// waiting is correct, not a stall: the deadline on lctx
			// bounds it.)
			rp.countForwardFailure(res.reply, res.err)
			rp.hedgeLocalWins.Add(1)
			rp.localFallbacks.Add(1)
			writeRecorded(w, <-localc)
		case rec := <-localc:
			// Local wins: answer now. The forward keeps running in the
			// background, feeding the breaker when it resolves.
			rp.hedgeLocalWins.Add(1)
			rp.localFallbacks.Add(1)
			writeRecorded(w, rec)
		}
		return
	}
	// Hedging disabled: wait the forward out (PR-6 behavior).
	res := <-fwdc
	rp.finishForward(svc, w, r, body, id, owner, deadline, res.reply, res.err)
}

// finishForward writes a resolved (un-hedged) forward: the peer's
// answer on success, local compute under the remaining budget on any
// failure or budget refusal.
func (rp *Replica) finishForward(svc *service.Server, w http.ResponseWriter, r *http.Request, body []byte, id, owner string, deadline time.Time, reply rpcReply, err error) {
	if err == nil && reply.OK && !reply.BudgetExhausted {
		rp.forwards.Add(1)
		writeForwardReply(w, id, owner, reply)
		return
	}
	rp.countForwardFailure(reply, err)
	rp.localFallbacks.Add(1)
	rp.serveLocalBudget(svc, w, r, body, id, deadline)
}

// countForwardFailure classifies a failed forward for the counters.
func (rp *Replica) countForwardFailure(reply rpcReply, err error) {
	if err == nil && reply.OK && reply.BudgetExhausted {
		rp.budgetExhausted.Add(1)
		return
	}
	rp.forwardErrors.Add(1)
}

// serveLocalBudget runs local compute bounded by the request's
// remaining deadline budget instead of a fresh full timeout.
func (rp *Replica) serveLocalBudget(svc *service.Server, w http.ResponseWriter, r *http.Request, body []byte, id string, deadline time.Time) {
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	rp.serveLocal(svc, w, r.WithContext(ctx), body, id)
}

// writeForwardReply relays an owner's recorded response.
func writeForwardReply(w http.ResponseWriter, id, owner string, reply rpcReply) {
	w.Header().Set("X-Request-Id", id)
	w.Header().Set("X-Fleet-Owner", owner)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(reply.Status)
	_, _ = w.Write(reply.Body)
}

// writeRecorded replays a locally recorded response onto the real
// writer.
func writeRecorded(w http.ResponseWriter, rec *responseRecorder) {
	h := w.Header()
	for k, vs := range rec.header {
		h[k] = vs
	}
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	_, _ = w.Write(rec.buf.Bytes())
}

// recordForwardOutcome feeds one resolved peer call to the breaker. A
// budget-exhausted refusal is a *healthy* peer answering promptly that
// time ran out — a success for breaker purposes.
func (rp *Replica) recordForwardOutcome(owner string, reply rpcReply, err error, rtt time.Duration) {
	br := rp.peerBreaker(owner)
	if br == nil {
		return
	}
	if err == nil && reply.OK {
		rp.noteBreakerEvents(owner, br.success(rtt))
		return
	}
	rp.noteBreakerEvents(owner, br.failure())
}

// peerBreaker returns a peer's breaker (nil for unknown ids; breaker
// methods are nil-safe).
func (rp *Replica) peerBreaker(id string) *breaker {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if p, ok := rp.peers[id]; ok {
		return p.br
	}
	return nil
}

// noteBreakerEvents emits breaker transitions to the fleet monitor.
func (rp *Replica) noteBreakerEvents(peerID string, evs []breakerEvent) {
	for _, ev := range evs {
		rp.f.mon.emit(ev.kind, peerID, rp.id, ev.detail)
	}
}

// hedgeDelayFor resolves the effective hedge delay: fixed when
// configured, per-peer derived when automatic, -1 when disabled.
func (rp *Replica) hedgeDelayFor(br *breaker) time.Duration {
	cfg := rp.f.cfg
	if cfg.HedgeDelay < 0 {
		return -1
	}
	if cfg.HedgeDelay > 0 {
		return cfg.HedgeDelay
	}
	return br.hedgeDelay()
}

// callPeerGated is callPeer behind the peer's breaker: anti-entropy
// uses it so digest/journal traffic both respects an open breaker and
// feeds the same failure counter and latency tracker forwards do.
func (rp *Replica) callPeerGated(id string, req rpcRequest, timeout time.Duration) (rpcReply, error) {
	br := rp.peerBreaker(id)
	allowed, evs := br.allow()
	rp.noteBreakerEvents(id, evs)
	if !allowed {
		return rpcReply{}, errBreakerOpen
	}
	t0 := wallNow()
	reply, err := rp.callPeer(id, req, timeout)
	rp.recordForwardOutcome(id, reply, err, wallNow().Sub(t0))
	return reply, err
}
