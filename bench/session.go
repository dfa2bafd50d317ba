package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sectorpack/internal/angular"
	"sectorpack/internal/cols"
	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/session"
)

// sessionCreateRequest mirrors the body of POST /session.
type sessionCreateRequest struct {
	Solver        string          `json:"solver"`
	FormatVersion int             `json:"format_version"`
	Instance      *model.Instance `json:"instance"`
}

// sessionDeltaRequest mirrors the body of POST /session/{id}/delta.
type sessionDeltaRequest struct {
	FormatVersion  int         `json:"format_version"`
	IdempotencyKey string      `json:"idempotency_key,omitempty"`
	Delta          model.Delta `json:"delta"`
}

type sessionStats struct {
	Solves        int64 `json:"solves"`
	Deltas        int64 `json:"deltas"`
	SweepsKept    int64 `json:"sweeps_kept"`
	SweepsDropped int64 `json:"sweeps_dropped"`
	StepsReused   int64 `json:"steps_reused"`
	StepsResolved int64 `json:"steps_resolved"`
}

// sessionResponse mirrors the daemon's create and delta answers.
type sessionResponse struct {
	SessionID string       `json:"session_id"`
	Stats     sessionStats `json:"stats"`
	solveResponse
}

// churnClient is one session: its trace, the request bodies generated from
// it, and how far it has got.
type churnClient struct {
	trace  *model.Trace
	create []byte
	deltas [][]byte
	id     string
	opened sample // the create answer
	pos    int    // next delta to send; only the client's goroutine touches it during a phase
}

// churnInputs generates one localized-churn trace per client, on the
// shape of gen.Tier("100k-churn") scaled down to p.sessionN customers. The
// seed draws the churn; the instance each trace starts from is the same
// for every seed, since two generated instances of this size can differ in
// what a delta costs by more than the bounds in BENCHMARK.json.
func churnInputs(e *env) ([]*churnClient, error) {
	steps := int(e.seconds.Seconds() * e.p.deltaCeiling)
	var cs []*churnClient
	for c := 0; c < e.nproc; c++ {
		base, err := gen.Tier("100k-churn")
		if err != nil {
			return nil, err
		}
		base.N, base.Seed = e.p.sessionN, base.Seed+int64(c)
		tr, err := gen.GenerateTrace(gen.ChurnConfig{Base: base, Steps: steps, Localized: true, Seed: genSeed(e.seed, int64(3_000_000+c))})
		if err != nil {
			return nil, err
		}
		cl := &churnClient{trace: tr}
		if cl.create, err = json.Marshal(sessionCreateRequest{Solver: "greedy", FormatVersion: 1, Instance: tr.Instance}); err != nil {
			return nil, err
		}
		for k, d := range tr.Deltas {
			body, err := json.Marshal(sessionDeltaRequest{FormatVersion: 1, IdempotencyKey: idemKey(c, k), Delta: d})
			if err != nil {
				return nil, err
			}
			cl.deltas = append(cl.deltas, body)
		}
		cs = append(cs, cl)
	}
	return cs, nil
}

func idemKey(client, k int) string { return "c" + strconv.Itoa(client) + "-" + strconv.Itoa(k) }

// startSessionFleet is the session-churn set-up: a journaling daemon and
// one open session per client.
func startSessionFleet(ctx context.Context, e *env, cs []*churnClient, rep int) (*fleet, error) {
	f, err := startDaemons(ctx, e, 1, "-session-journal", filepath.Join(e.dir, "journal-"+strconv.Itoa(rep)))
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, cl := range cs {
		wg.Add(1)
		go func(i int, cl *churnClient) {
			defer wg.Done()
			s, err := call(ctx, e.hc, "POST", f.front+"/session", cl.create)
			if err != nil {
				errs[i] = fmt.Errorf("open session %d: %w", i, err)
				return
			}
			var r sessionResponse
			if err := json.Unmarshal(s.body, &r); err != nil {
				errs[i] = fmt.Errorf("decode session %d: %w", i, err)
				return
			}
			cl.id, cl.opened, cl.pos = r.SessionID, *s, 0
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func runSessionChurn(ctx context.Context, e *env) (*result, error) {
	res := &result{workload: "session-churn", tail: 90}
	cs, err := churnInputs(e)
	if err != nil {
		return nil, err
	}
	f, setups, err := repeatSetup(e, func(rep int) (*fleet, error) { return startSessionFleet(ctx, e, cs, rep) })
	if err != nil {
		return nil, err
	}
	defer f.stop()
	next := func(c, _ int) (request, bool) {
		cl := cs[c]
		if cl.pos >= len(cl.deltas) {
			return request{}, false
		}
		k := cl.pos
		cl.pos++
		return request{method: "POST", url: f.front + "/session/" + cl.id + "/delta", body: cl.deltas[k], input: k}, true
	}

	if e.traced() {
		return traceSessions(ctx, e, cs, f, next, res)
	}

	var samples []sample
	var busy time.Duration
	m, err := measure(e, f.servers, func() error {
		block, err := closedLoop(ctx, e.hc, len(cs), e.seconds/runBlocks, next, nil)
		samples, busy = append(samples, block...), busy+lastDone(block)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.count(samples)
	res.setEndToEnd(summarize(samples, res.tail), busy, m, setups)
	res.checkChurnAnswers(ctx, cs, samples, nil)
	return res, nil
}

// checkChurnAnswers is the session answer oracle. The client materializes
// its instance with model.ApplyDelta and every answer must pass
// core.VerifySolution against it. Each session's last answer must equal a
// from-scratch in-process greedy solve of that instance, and replayed
// deltas (replay[k], client 0) must match the HTTP answer bit for bit.
func (r *result) checkChurnAnswers(ctx context.Context, cs []*churnClient, samples []sample, replay []model.Solution) {
	byClient := make([]map[int]*sample, len(cs))
	for i := range byClient {
		byClient[i] = map[int]*sample{}
	}
	for i := range samples {
		if samples[i].ok() {
			byClient[samples[i].client][samples[i].input] = &samples[i]
		}
	}
	greedy, err := core.Get("greedy")
	if err != nil {
		r.mismatchf("%v", err)
		return
	}
	noBound := daemonOptions
	noBound.SkipBound = true
	for c, cl := range cs {
		cur := cl.trace.Instance
		if err := checkAnswer(cl.opened.body, cur, nil, nil); err != nil {
			r.mismatchf("session %d create: %v", c, err)
		}
		var last *sample
		for k, d := range cl.trace.Deltas {
			s, ok := byClient[c][k]
			if !ok {
				break
			}
			next, err := model.ApplyDelta(cur, d)
			if err != nil {
				r.mismatchf("session %d delta %d: materialize: %v", c, k, err)
				break
			}
			cur, last = next, s
			var ref *model.Solution
			if c == 0 && k < len(replay) {
				ref = &replay[k]
			}
			if err := checkAnswer(s.body, cur, ref, nil); err != nil {
				r.mismatchf("session %d delta %d: %v", c, k, err)
			}
		}
		if last == nil {
			continue
		}
		ref, err := greedy(ctx, cur, noBound)
		if err != nil {
			r.mismatchf("session %d: in-process reference: %v", c, err)
			continue
		}
		if err := checkAnswer(last.body, cur, &ref, nil); err != nil {
			r.mismatchf("session %d delta %d against a from-scratch solve: %v", c, last.input, err)
		}
	}
}

// traceSessions is the traced run of session-churn: an untraced and a
// traced closed-loop phase, then the in-process replay of client 0's
// first deltas.
func traceSessions(ctx context.Context, e *env, cs []*churnClient, f *fleet, next func(c, k int) (request, bool), res *result) (*result, error) {
	phase := e.seconds / 4
	plain, err := closedLoop(ctx, e.hc, len(cs), phase, next, nil)
	if err != nil {
		return nil, err
	}
	traced, err := closedLoop(ctx, e.hc, len(cs), phase, next, func(s *sample) { e.rec.clientSpan("client.delta", s) })
	if err != nil {
		return nil, err
	}
	extra := loadLayers(traced)
	extra["trace.overhead"] = ratio(summarize(traced, res.tail).p50, summarize(plain, res.tail).p50) - 1
	samples := append(plain, traced...)
	extra["session.steps_reused_ratio"], extra["session.sweeps_kept_ratio"] = reuseRatios(cs, samples)
	res.count(samples)

	replay, err := replayDeltas(ctx, e, cs[0])
	if err != nil {
		return nil, err
	}
	res.checkChurnAnswers(ctx, cs, samples, replay)
	res.setPerLayer(e.rec.snapshot(), extra)
	return res, nil
}

// reuseRatios reads the reuse counters of each session's last answer,
// minus those of its create answer: steps replayed ÷ steps run and sweeps
// kept ÷ sweeps rebased.
func reuseRatios(cs []*churnClient, samples []sample) (steps, sweeps float64) {
	last := map[int]*sample{}
	for i := range samples {
		s := &samples[i]
		if s.ok() && (last[s.client] == nil || s.input > last[s.client].input) {
			last[s.client] = s
		}
	}
	var reused, resolved, kept, dropped int64
	for c, cl := range cs {
		if last[c] == nil {
			continue
		}
		var a, b sessionResponse
		if json.Unmarshal(cl.opened.body, &a) != nil || json.Unmarshal(last[c].body, &b) != nil {
			continue
		}
		reused += b.Stats.StepsReused - a.Stats.StepsReused
		resolved += b.Stats.StepsResolved - a.Stats.StepsResolved
		kept += b.Stats.SweepsKept - a.Stats.SweepsKept
		dropped += b.Stats.SweepsDropped - a.Stats.SweepsDropped
	}
	return ratio(float64(reused), float64(reused+resolved)), ratio(float64(kept), float64(kept+dropped))
}

// replayDeltas replays client cl's first deltas in-process. Each delta is a
// "delta" root whose children are the daemon's steps — decode, the session
// apply (split into the incremental solve and the bound it ends with),
// verify, journal append, encode — and a "delta.parts" root timing the
// rebase steps inside Session.Apply on a side engine that follows the same
// instances.
func replayDeltas(ctx context.Context, e *env, cl *churnClient) ([]model.Solution, error) {
	rec := e.rec
	// Unlocked, this replay's layer times read 1.25–1.58× the daemon's own
	// elapsed_ms for the same deltas on a 2-CPU host; on one locked thread
	// they agree within 11%. The other replays are locked the same way.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	noBound := daemonOptions
	noBound.SkipBound = true
	sess, err := session.New(ctx, cl.trace.Instance, session.Options{Solver: "greedy", Core: noBound})
	if err != nil {
		return nil, err
	}
	j, err := session.CreateJournal(faultfs.OS, filepath.Join(e.dir, "replay.journal"),
		session.Options{Solver: "greedy", Core: daemonOptions}, cl.trace.Instance, 1)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	cur := cl.trace.Instance
	eng := angular.NewEngine(cur)
	if err := eng.Prewarm(ctx); err != nil {
		return nil, err
	}
	view := cols.New(cur)

	var out []model.Solution
	for k := 0; k < e.p.replayDeltas && k < len(cl.deltas); k++ {
		rid := "replay-" + strconv.Itoa(k)
		root := rec.root("delta", rid)
		var req sessionDeltaRequest
		rec.do(root, "model.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(cl.deltas[k]))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		if err != nil {
			return nil, err
		}
		var sol model.Solution
		apply := rec.begin(root, "session.apply")
		rec.do(apply, "core.solve", func() { sol, err = sess.Apply(ctx, req.Delta) })
		if err != nil {
			return nil, fmt.Errorf("replay delta %d: %w", k, err)
		}
		rec.do(apply, "core.upper_bound", func() { sol.UpperBound = core.UpperBound(sess.Instance()) })
		rec.end(apply)
		rec.do(root, "core.verify", func() { err = core.VerifySolution("greedy", sess.Instance(), sol) })
		if err != nil {
			return nil, err
		}
		rec.do(root, "session.journal_append", func() { err = j.AppendDelta(req.Delta, req.IdempotencyKey) })
		if err != nil {
			return nil, err
		}
		rec.do(root, "daemon.encode", func() {
			encodeLikeDaemon(sessionResponse{SessionID: "replay", Stats: sessionStats{}, solveResponse: newSolveResponse("greedy", sol)})
		})
		rec.end(root)
		out = append(out, sol)

		parts := rec.root("delta.parts", rid)
		var next *model.Instance
		rec.do(parts, "model.apply_delta", func() { next, err = model.ApplyDelta(cur, req.Delta) })
		if err != nil {
			return nil, err
		}
		rec.do(parts, "cols.rebase", func() { view = cols.Rebase(view, next, req.Delta.Remove, len(req.Delta.Add)) })
		rec.do(parts, "angular.rebase", func() { eng.Rebase(next, req.Delta) })
		rec.end(parts)
		// Rebuild the sweeps the rebase dropped, as the session's next solve
		// would, so the side engine stays as warm as the session's.
		if err := eng.Prewarm(ctx); err != nil {
			return nil, err
		}
		cur = next
	}
	return out, nil
}
