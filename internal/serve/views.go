package serve

// Compiled-view export/import and warm-cache handoff. The sharded tier
// keys each compiled view to exactly one worker; when that worker
// drains, its cache would die with it and every key it owned would
// recompile cold on whichever worker inherits the traffic. These
// endpoints make the cache portable: views travel in the versioned
// engine wire codec (X-Codec-Version header), finished placement jobs
// travel in a versioned JSON envelope, and Handoff streams both to a
// successor hottest-first on shutdown.
//
// Imports are validated, not trusted blindly: the cache key names the
// ensemble fingerprint the view was compiled from, and an import is
// accepted only when a loaded ensemble has that exact fingerprint and
// the decoded matrix matches the key's universe and the ensemble's
// realization count. The fingerprint covers the ensemble's full
// failure-bit content, so a fingerprint match means the peer compiled
// from bit-identical data.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// CodecVersionHeader carries the engine wire-codec version on view
// export responses and import requests.
const CodecVersionHeader = "X-Codec-Version"

// JobEnvelopeVersion is the version of the finished-job JSON envelope
// served by /v1/jobs/export and accepted by /v1/jobs/import.
const JobEnvelopeVersion = 1

// ---- GET /v1/readyz ----

// handleReadyz is the router-facing readiness probe: 200 while the
// server accepts work, 503 with the shutting_down envelope once Close
// has run. Liveness plus inventory lives at /v1/healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	if s.closed.Load() {
		return errShuttingDown()
	}
	return writeJSON(w, map[string]any{"ready": true})
}

// ---- GET /v1/views ----

// handleViews lists the cached compiled views hottest-first: the key,
// its shape, and the ensemble it belongs to — what a successor would
// receive from a handoff, in the order it would receive it.
func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	snap := s.cache.snapshot()
	type viewJSON struct {
		Key              string `json:"key"`
		Ensemble         string `json:"ensemble,omitempty"`
		Assets           int    `json:"assets"`
		Rows             int    `json:"rows"`
		DistinctPatterns int    `json:"distinct_patterns"`
		WireBytes        int    `json:"wire_bytes_estimate"`
	}
	views := make([]viewJSON, 0, len(snap))
	for _, kv := range snap {
		vj := viewJSON{
			Key:              kv.key,
			Assets:           len(kv.view.cm.Source().Assets()),
			Rows:             kv.view.cm.Rows(),
			DistinctPatterns: kv.view.cm.DistinctRows(),
			WireBytes:        kv.view.cm.EncodedSizeEstimate(),
		}
		if ens, _, err := s.resolveViewKey(kv.key); err == nil {
			vj.Ensemble = ens.name
		}
		views = append(views, vj)
	}
	return writeJSON(w, map[string]any{
		"codec_version": engine.CompressedMatrixCodecVersion,
		"capacity":      s.opt.CacheEntries,
		"views":         views,
	})
}

// ---- GET /v1/views/export ----

// handleViewExport streams one cached view in wire format. The key is
// the cache key exactly as /v1/views lists it.
func (s *Server) handleViewExport(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	if err := CheckParams(q, "key"); err != nil {
		return err
	}
	key := q.Get("key")
	if key == "" {
		return badRequestf("key parameter required")
	}
	v, ok := s.cache.peek(key)
	if !ok {
		return notFoundf("no cached view for key %q", key)
	}
	s.viewsExported.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(CodecVersionHeader, strconv.Itoa(engine.CompressedMatrixCodecVersion))
	return engine.EncodeCompressedMatrix(w, v.cm)
}

// ---- POST /v1/views/import ----

// handleViewImport accepts one wire-encoded view and inserts it into
// the cache under the given key. The declared codec version must match,
// the key's fingerprint must name a loaded ensemble, and the decoded
// matrix must cover exactly the key's universe over that ensemble's
// realization count. An already-present key is not overwritten.
func (s *Server) handleViewImport(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	if err := CheckParams(q, "key"); err != nil {
		return err
	}
	if s.closed.Load() {
		return errShuttingDown()
	}
	key := q.Get("key")
	if key == "" {
		return badRequestf("key parameter required")
	}
	if got := r.Header.Get(CodecVersionHeader); got != strconv.Itoa(engine.CompressedMatrixCodecVersion) {
		return badRequestf("%s %q does not match supported codec version %d",
			CodecVersionHeader, got, engine.CompressedMatrixCodecVersion)
	}
	ens, universe, err := s.resolveViewKey(key)
	if err != nil {
		return err
	}
	cm, err := engine.DecodeCompressedMatrix(http.MaxBytesReader(w, r.Body, s.opt.MaxImportBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("decode view: %v", err)
	}
	ids := cm.Source().Assets()
	if len(ids) != len(universe) {
		return badRequestf("view covers %d assets, key names %d", len(ids), len(universe))
	}
	for i, id := range ids {
		if id != universe[i] {
			return badRequestf("view asset %d is %q, key names %q", i, id, universe[i])
		}
	}
	if cm.Rows() != ens.e.Size() {
		return badRequestf("view has %d realizations, ensemble %q has %d", cm.Rows(), ens.name, ens.e.Size())
	}
	imported := s.cache.put(key, &view{cm: cm})
	if imported {
		s.viewsImported.Inc()
	}
	return writeJSON(w, map[string]any{"imported": imported, "key": key})
}

// resolveViewKey parses a cache key ("%016x|universe\x1funiverse...")
// and resolves its fingerprint against the loaded ensembles.
func (s *Server) resolveViewKey(key string) (*ensembleEntry, []string, error) {
	hexPart, rest, ok := strings.Cut(key, "|")
	if !ok {
		return nil, nil, badRequestf("malformed view key %q", key)
	}
	hash, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil || len(hexPart) != 16 {
		return nil, nil, badRequestf("malformed fingerprint in view key %q", key)
	}
	var ens *ensembleEntry
	s.mu.RLock()
	for _, name := range s.names {
		if e := s.ensembles[name]; e.hash == hash {
			ens = e
			break
		}
	}
	s.mu.RUnlock()
	if ens == nil {
		return nil, nil, notFoundf("no loaded ensemble has fingerprint %s", hexPart)
	}
	universe := strings.Split(rest, "\x1f")
	if len(universe) == 0 || universe[0] == "" {
		return nil, nil, badRequestf("view key %q names no assets", key)
	}
	if err := ens.checkAssets(universe); err != nil {
		return nil, nil, err
	}
	return ens, universe, nil
}

// ---- finished-job envelopes ----

// jobResultDTO is the wire form of a placement.KResult.
type jobResultDTO struct {
	Sites            []string       `json:"sites"`
	Score            float64        `json:"score"`
	Evaluated        int64          `json:"evaluated"`
	Pruned           int64          `json:"pruned"`
	Exact            bool           `json:"exact"`
	Candidates       int            `json:"candidates"`
	DistinctPatterns int            `json:"distinct_patterns"`
	ConfigName       string         `json:"config_name"`
	Counts           map[string]int `json:"counts"`
}

// jobProgressDTO is the wire form of the final placement.KProgress
// snapshot, carried so the successor's poll response reports the same
// terminal progress the original worker would.
type jobProgressDTO struct {
	Phase     string   `json:"phase"`
	Evaluated int64    `json:"evaluated"`
	Pruned    int64    `json:"pruned"`
	BestScore float64  `json:"best_score"`
	BestSites []string `json:"best_sites,omitempty"`
}

// jobEnvelope is the versioned wire form of one finished placement
// job: everything the poll endpoint renders, so a successor answers
// polls for inherited jobs exactly as the original worker would.
type jobEnvelope struct {
	Version         int            `json:"version"`
	ID              string         `json:"id"`
	Key             string         `json:"key"`
	Ensemble        string         `json:"ensemble"`
	Scenario        string         `json:"scenario"`
	Objective       string         `json:"objective"`
	K               int            `json:"k"`
	Exact           bool           `json:"exact"`
	CreatedUnixNano int64          `json:"created_unix_nano"`
	Progress        jobProgressDTO `json:"progress"`
	Result          jobResultDTO   `json:"result"`
}

// envelopeOf renders a done job; ok is false for jobs that are not
// exportable (running, failed, canceled).
func envelopeOf(j *job) (jobEnvelope, bool) {
	state, progress, result, _ := j.snapshot()
	if state != jobDone || result == nil {
		return jobEnvelope{}, false
	}
	counts := make(map[string]int, 4)
	for _, st := range opstate.States() {
		counts[st.String()] = result.Outcome.Profile.Count(st)
	}
	return jobEnvelope{
		Version:         JobEnvelopeVersion,
		ID:              j.id,
		Key:             j.key,
		Ensemble:        j.ensName,
		Scenario:        scenarioWireName(j.scenario),
		Objective:       j.objName,
		K:               j.k,
		Exact:           j.exact,
		CreatedUnixNano: j.created.UnixNano(),
		Progress: jobProgressDTO{
			Phase:     progress.Phase,
			Evaluated: progress.Evaluated,
			Pruned:    progress.Pruned,
			BestScore: progress.BestScore,
			BestSites: progress.BestSites,
		},
		Result: jobResultDTO{
			Sites:            result.Sites,
			Score:            result.Score,
			Evaluated:        result.Evaluated,
			Pruned:           result.Pruned,
			Exact:            result.Exact,
			Candidates:       result.Candidates,
			DistinctPatterns: result.DistinctPatterns,
			ConfigName:       result.Outcome.Config.Name,
			Counts:           counts,
		},
	}, true
}

// scenarioWireName is the inverse of threat.ParseScenario: the request
// token for a scenario, so an exported envelope re-parses on import.
func scenarioWireName(s threat.Scenario) string {
	switch s {
	case threat.Hurricane:
		return "hurricane"
	case threat.HurricaneIntrusion:
		return "intrusion"
	case threat.HurricaneIsolation:
		return "isolation"
	default:
		return "both"
	}
}

// jobFromEnvelope reconstructs a pollable done job. The profile is
// rebuilt count-for-count, so the successor's poll response is
// bit-identical to the original worker's.
func jobFromEnvelope(env jobEnvelope) (*job, error) {
	if env.Version != JobEnvelopeVersion {
		return nil, fmt.Errorf("unsupported job envelope version %d (have %d)", env.Version, JobEnvelopeVersion)
	}
	if env.ID == "" || env.Key == "" {
		return nil, errors.New("job envelope missing id or key")
	}
	scenario, err := threat.ParseScenario(env.Scenario)
	if err != nil {
		return nil, err
	}
	profile := stats.NewProfile()
	for _, st := range opstate.States() {
		n := env.Result.Counts[st.String()]
		if n < 0 {
			return nil, fmt.Errorf("job envelope has negative count for state %s", st)
		}
		profile.AddN(st, n)
	}
	if len(env.Result.Sites) == 0 {
		return nil, errors.New("job envelope result names no sites")
	}
	cfg := topology.NewConfigKSite(env.Result.Sites)
	if env.Result.ConfigName != "" {
		cfg.Name = env.Result.ConfigName
	}
	j := &job{
		jobBase: jobBase{
			id:      env.ID,
			key:     env.Key,
			created: time.Unix(0, env.CreatedUnixNano),
			done:    make(chan struct{}),
			state:   jobDone,
		},
		ensName:  env.Ensemble,
		scenario: scenario,
		objName:  env.Objective,
		k:        env.K,
		exact:    env.Exact,
		progress: placement.KProgress{
			Phase:     env.Progress.Phase,
			Evaluated: env.Progress.Evaluated,
			Pruned:    env.Progress.Pruned,
			BestScore: env.Progress.BestScore,
			BestSites: env.Progress.BestSites,
		},
		result: &placement.KResult{
			Sites:            env.Result.Sites,
			Score:            env.Result.Score,
			Outcome:          analysis.Outcome{Config: cfg, Scenario: scenario, Profile: profile},
			Evaluated:        env.Result.Evaluated,
			Pruned:           env.Result.Pruned,
			Exact:            env.Result.Exact,
			Candidates:       env.Result.Candidates,
			DistinctPatterns: env.Result.DistinctPatterns,
		},
	}
	close(j.done)
	return j, nil
}

// ---- GET /v1/jobs/export ----

// handleJobsExport lists every finished (done) placement job as a
// versioned envelope, oldest first.
func (s *Server) handleJobsExport(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	envs := exportDone(s.jobs)
	return writeJSON(w, map[string]any{"version": JobEnvelopeVersion, "jobs": envs})
}

// ---- POST /v1/jobs/import ----

// handleJobsImport accepts finished-job envelopes and registers them
// for polling (and, by content key, as coalescing result-cache hits).
// Jobs whose id or key already exists locally are skipped.
func (s *Server) handleJobsImport(w http.ResponseWriter, r *http.Request) error {
	if s.closed.Load() {
		return errShuttingDown()
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxImportBytes))
	dec.DisallowUnknownFields()
	var body struct {
		Version int           `json:"version"`
		Jobs    []jobEnvelope `json:"jobs"`
	}
	if err := dec.Decode(&body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("invalid request body: %v", err)
	}
	if body.Version != JobEnvelopeVersion {
		return badRequestf("unsupported job envelope version %d (have %d)", body.Version, JobEnvelopeVersion)
	}
	imported := 0
	for i, env := range body.Jobs {
		j, err := jobFromEnvelope(env)
		if err != nil {
			return badRequestf("job %d: %v", i, err)
		}
		if s.jobs.importDone(j) {
			imported++
			s.jobsImported.Inc()
		}
	}
	return writeJSON(w, map[string]any{"imported": imported, "received": len(body.Jobs)})
}

// ---- warm handoff ----

// HandoffReport summarizes one handoff: how much state the successor
// accepted.
type HandoffReport struct {
	// Views is the number of compiled views the successor imported.
	Views int
	// SkippedViews counts views the successor already had (or refused).
	SkippedViews int
	// Jobs is the number of finished placement jobs imported.
	Jobs int
}

// Handoff streams this server's hottest compiled views (up to maxViews;
// 0 = all) and its finished placement jobs to the successor at baseURL,
// using the view wire codec and the job envelope. Call it after the
// listener has drained: the cache is no longer changing, so the
// snapshot is the final LRU order. Per-item failures abort the handoff
// and return what had transferred by then.
func (s *Server) Handoff(ctx context.Context, baseURL string, maxViews int) (HandoffReport, error) {
	var rep HandoffReport
	base := strings.TrimSuffix(baseURL, "/")
	client := &http.Client{}
	defer client.CloseIdleConnections()
	snap := s.cache.snapshot()
	if maxViews > 0 && maxViews < len(snap) {
		snap = snap[:maxViews]
	}
	sp := obs.Default().StartSpan("serve.handoff_ns")
	defer sp.End()
	for _, kv := range snap {
		var buf strings.Builder
		if err := engine.EncodeCompressedMatrix(&buf, kv.view.cm); err != nil {
			return rep, fmt.Errorf("serve: encode view %q: %w", kv.key, err)
		}
		u := base + "/v1/views/import?key=" + url.QueryEscape(kv.key)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(buf.String()))
		if err != nil {
			return rep, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(CodecVersionHeader, strconv.Itoa(engine.CompressedMatrixCodecVersion))
		var out struct {
			Imported bool `json:"imported"`
		}
		if err := doJSON(client, req, &out); err != nil {
			return rep, fmt.Errorf("serve: handoff view %q: %w", kv.key, err)
		}
		if out.Imported {
			rep.Views++
			s.handoffViews.Inc()
		} else {
			rep.SkippedViews++
		}
	}
	envs := exportDone(s.jobs)
	if len(envs) > 0 {
		body, err := json.Marshal(map[string]any{"version": JobEnvelopeVersion, "jobs": envs})
		if err != nil {
			return rep, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs/import", strings.NewReader(string(body)))
		if err != nil {
			return rep, err
		}
		req.Header.Set("Content-Type", "application/json")
		var out struct {
			Imported int `json:"imported"`
		}
		if err := doJSON(client, req, &out); err != nil {
			return rep, fmt.Errorf("serve: handoff jobs: %w", err)
		}
		rep.Jobs = out.Imported
	}
	return rep, nil
}

// doJSON runs one request and decodes a JSON response, turning non-2xx
// statuses into errors carrying the response body.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
