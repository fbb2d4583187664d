package serve

// The write path: user-supplied scenarios. POST /v1/topologies uploads
// a terrain + asset-inventory document, validated strictly and stored
// content-addressed (the topology id is the FNV-1a fingerprint of the
// canonical document, so identical uploads are idempotent and free).
// POST /v1/ensembles references an uploaded topology by id plus storm
// parameters and runs Monte-Carlo generation as an async job (see
// genjobs.go); the finished ensemble registers under "u-<scenario id>"
// and is queryable through every read endpoint. When Options.Store is
// set, both document kinds persist through the content-addressed store
// and a restarted server re-serves them warm (see docs/STORAGE.md);
// with a nil Store the write path still works but is memory-only.
//
// All rejections use the typed error envelope: validation_failed (422)
// for malformed or semantically invalid documents, payload_too_large
// (413) for bodies over Options.MaxUploadBytes, quota_exceeded (429)
// when a client's object or byte budget is exhausted, and
// shutting_down (503) after Close.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/geo"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/store"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
)

// ---- typed errors ----

// validationFailedf rejects a malformed or semantically invalid upload.
func validationFailedf(format string, args ...any) error {
	return &apiError{status: http.StatusUnprocessableEntity, code: "validation_failed", message: fmt.Sprintf(format, args...)}
}

// quotaExceededf rejects a write that would exceed the client's budget.
func quotaExceededf(format string, args ...any) error {
	return &apiError{status: http.StatusTooManyRequests, code: "quota_exceeded", message: fmt.Sprintf(format, args...)}
}

// errPayloadTooLarge rejects upload bodies over MaxUploadBytes.
func errPayloadTooLarge(limit int64) error {
	return &apiError{status: http.StatusRequestEntityTooLarge, code: "payload_too_large",
		message: fmt.Sprintf("upload body exceeds %d bytes", limit)}
}

// ---- upload document schemas ----

// topologyDoc is the POST /v1/topologies body: a named terrain plus an
// asset inventory. Unknown fields are rejected; the canonical wire form
// (normalized re-marshal of this struct) is what gets fingerprinted and
// stored, so field order and defaults never split ids.
type topologyDoc struct {
	Name    string     `json:"name"`
	Terrain terrainDoc `json:"terrain"`
	Assets  []assetDoc `json:"assets"`
}

type terrainDoc struct {
	Origin                  geo.Point   `json:"origin"`
	Coastline               []geo.Point `json:"coastline"`
	CoastalRampSlope        float64     `json:"coastal_ramp_slope"`
	CoastalPlainWidthMeters float64     `json:"coastal_plain_width_meters"`
	InlandSlope             float64     `json:"inland_slope"`
	OffshoreSlope           float64     `json:"offshore_slope"`
	Zones                   []zoneDoc   `json:"zones,omitempty"`
}

type zoneDoc struct {
	Name         string    `json:"name"`
	Center       geo.Point `json:"center"`
	RadiusMeters float64   `json:"radius_meters"`
}

type assetDoc struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Type is one of control-center, data-center, power-plant,
	// substation.
	Type                  string    `json:"type"`
	Location              geo.Point `json:"location"`
	GroundElevationMeters float64   `json:"ground_elevation_meters"`
	ControlSiteCandidate  bool      `json:"control_site_candidate,omitempty"`
}

// ensembleParamsDoc is the POST /v1/ensembles body: an uploaded
// topology reference plus the storm ensemble parameters.
type ensembleParamsDoc struct {
	Topology             string          `json:"topology"`
	Realizations         int             `json:"realizations"`
	Seed                 int64           `json:"seed"`
	FloodThresholdMeters float64         `json:"flood_threshold_meters,omitempty"`
	Base                 baseStormDoc    `json:"base"`
	Spread               perturbationDoc `json:"spread"`
}

type baseStormDoc struct {
	ReferencePoint     geo.Point `json:"reference_point"`
	HeadingDeg         float64   `json:"heading_deg"`
	ForwardSpeedMS     float64   `json:"forward_speed_ms"`
	DurationHours      float64   `json:"duration_hours"`
	CentralPressureHPa float64   `json:"central_pressure_hpa"`
	RMaxMeters         float64   `json:"rmax_meters"`
	HollandB           float64   `json:"holland_b"`
}

type perturbationDoc struct {
	TrackOffsetSigmaMeters float64 `json:"track_offset_sigma_meters,omitempty"`
	AlongTrackSigmaMeters  float64 `json:"along_track_sigma_meters,omitempty"`
	HeadingSigmaDeg        float64 `json:"heading_sigma_deg,omitempty"`
	PressureSigmaHPa       float64 `json:"pressure_sigma_hpa,omitempty"`
	RMaxSigmaFraction      float64 `json:"rmax_sigma_fraction,omitempty"`
	SpeedSigmaFraction     float64 `json:"speed_sigma_fraction,omitempty"`
}

// strictDecode unmarshals data into v, rejecting unknown fields and
// trailing content.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after document")
	}
	return nil
}

// decodeTopologyDoc decodes and limit-checks one topology document and
// derives its canonical wire form and content id. It does not build
// the terrain model — the router uses this cheap half for shard-key
// derivation.
func decodeTopologyDoc(data []byte, opt Options) (topologyDoc, []byte, string, error) {
	var doc topologyDoc
	if err := strictDecode(data, &doc); err != nil {
		return doc, nil, "", validationFailedf("invalid topology document: %v", err)
	}
	if doc.Name == "" {
		return doc, nil, "", validationFailedf("topology name is required")
	}
	if len(doc.Name) > 128 {
		return doc, nil, "", validationFailedf("topology name exceeds 128 characters")
	}
	if n := len(doc.Terrain.Coastline); n < 3 {
		return doc, nil, "", validationFailedf("coastline needs at least 3 vertices, got %d", n)
	} else if n > opt.MaxUploadVertices {
		return doc, nil, "", validationFailedf("coastline exceeds %d vertices (got %d)", opt.MaxUploadVertices, n)
	}
	if n := len(doc.Assets); n == 0 {
		return doc, nil, "", validationFailedf("at least one asset is required")
	} else if n > opt.MaxUploadAssets {
		return doc, nil, "", validationFailedf("inventory exceeds %d assets (got %d)", opt.MaxUploadAssets, n)
	}
	for i := range doc.Assets {
		if doc.Assets[i].Name == "" {
			doc.Assets[i].Name = doc.Assets[i].ID
		}
		if _, err := parseAssetType(doc.Assets[i].Type); err != nil {
			return doc, nil, "", validationFailedf("asset %q: %v", doc.Assets[i].ID, err)
		}
	}
	canonical, err := json.Marshal(doc)
	if err != nil {
		return doc, nil, "", validationFailedf("topology document not canonicalizable: %v", err)
	}
	return doc, canonical, store.ContentID(canonical), nil
}

// parseAssetType maps the wire type names onto assets.Type.
func parseAssetType(s string) (assets.Type, error) {
	switch s {
	case "control-center":
		return assets.ControlCenter, nil
	case "data-center":
		return assets.DataCenter, nil
	case "power-plant":
		return assets.PowerPlant, nil
	case "substation":
		return assets.Substation, nil
	default:
		return 0, fmt.Errorf("unknown asset type %q (want control-center, data-center, power-plant, or substation)", s)
	}
}

// uploadedTopology is one validated, fully built topology: terrain
// model, inventory, and a generator ready to run ensembles against it.
type uploadedTopology struct {
	id        string
	doc       topologyDoc
	canonical []byte
	tm        *terrain.Model
	inv       *assets.Inventory
	gen       *hazard.Generator
}

// parseTopologyUpload decodes, validates, and builds one topology
// upload: on success the terrain model compiled and every asset
// admitted by the inventory, so nothing can fail later at generation
// time for topology reasons.
func parseTopologyUpload(data []byte, opt Options) (*uploadedTopology, error) {
	doc, canonical, id, err := decodeTopologyDoc(data, opt)
	if err != nil {
		return nil, err
	}
	tcfg := terrain.Config{
		Name:                    doc.Name,
		Origin:                  doc.Terrain.Origin,
		Coastline:               doc.Terrain.Coastline,
		CoastalRampSlope:        doc.Terrain.CoastalRampSlope,
		CoastalPlainWidthMeters: doc.Terrain.CoastalPlainWidthMeters,
		InlandSlope:             doc.Terrain.InlandSlope,
		OffshoreSlope:           doc.Terrain.OffshoreSlope,
	}
	for _, z := range doc.Terrain.Zones {
		tcfg.Zones = append(tcfg.Zones, terrain.Zone{Name: z.Name, Center: z.Center, RadiusMeters: z.RadiusMeters})
	}
	tm, err := terrain.New(tcfg)
	if err != nil {
		return nil, validationFailedf("terrain: %v", err)
	}
	list := make([]assets.Asset, 0, len(doc.Assets))
	for _, a := range doc.Assets {
		typ, err := parseAssetType(a.Type)
		if err != nil {
			return nil, validationFailedf("asset %q: %v", a.ID, err)
		}
		list = append(list, assets.Asset{
			ID:                    a.ID,
			Name:                  a.Name,
			Type:                  typ,
			Location:              a.Location,
			GroundElevationMeters: a.GroundElevationMeters,
			ControlSiteCandidate:  a.ControlSiteCandidate,
		})
	}
	inv, err := assets.NewInventory(list)
	if err != nil {
		return nil, validationFailedf("assets: %v", err)
	}
	gen, err := hazard.NewGenerator(tm, surge.DefaultParams(), inv)
	if err != nil {
		return nil, validationFailedf("generator: %v", err)
	}
	return &uploadedTopology{id: id, doc: doc, canonical: canonical, tm: tm, inv: inv, gen: gen}, nil
}

// ensembleParams is one validated generation request.
type ensembleParams struct {
	doc        ensembleParamsDoc
	canonical  []byte
	topologyID string
	// scenarioID fingerprints the canonical parameter document
	// (including the topology id), naming the resulting ensemble
	// "u-<scenarioID>".
	scenarioID string
	cfg        hazard.EnsembleConfig
}

// decodeEnsembleParams decodes, limit-checks, and validates one
// generation request, deriving its canonical form and scenario id. The
// referenced topology is resolved separately by the caller.
func decodeEnsembleParams(data []byte, opt Options) (*ensembleParams, error) {
	var doc ensembleParamsDoc
	if err := strictDecode(data, &doc); err != nil {
		return nil, validationFailedf("invalid ensemble parameters: %v", err)
	}
	if doc.Topology == "" {
		return nil, validationFailedf("topology id is required")
	}
	if doc.Realizations > opt.MaxUploadRealizations {
		return nil, validationFailedf("realizations exceed the %d cap (got %d)", opt.MaxUploadRealizations, doc.Realizations)
	}
	if doc.FloodThresholdMeters == 0 {
		doc.FloodThresholdMeters = hazard.DefaultFloodThresholdMeters
	}
	cfg := hazard.EnsembleConfig{
		Realizations:         doc.Realizations,
		Seed:                 doc.Seed,
		FloodThresholdMeters: doc.FloodThresholdMeters,
		Base: hazard.BaseStorm{
			ReferencePoint:     doc.Base.ReferencePoint,
			HeadingDeg:         doc.Base.HeadingDeg,
			ForwardSpeedMS:     doc.Base.ForwardSpeedMS,
			Duration:           time.Duration(doc.Base.DurationHours * float64(time.Hour)),
			CentralPressureHPa: doc.Base.CentralPressureHPa,
			RMaxMeters:         doc.Base.RMaxMeters,
			HollandB:           doc.Base.HollandB,
		},
		Spread: hazard.Perturbation{
			TrackOffsetSigmaMeters: doc.Spread.TrackOffsetSigmaMeters,
			AlongTrackSigmaMeters:  doc.Spread.AlongTrackSigmaMeters,
			HeadingSigmaDeg:        doc.Spread.HeadingSigmaDeg,
			PressureSigmaHPa:       doc.Spread.PressureSigmaHPa,
			RMaxSigmaFraction:      doc.Spread.RMaxSigmaFraction,
			SpeedSigmaFraction:     doc.Spread.SpeedSigmaFraction,
		},
	}
	if err := cfg.Validate(); err != nil {
		return nil, validationFailedf("%v", err)
	}
	canonical, err := json.Marshal(doc)
	if err != nil {
		return nil, validationFailedf("parameters not canonicalizable: %v", err)
	}
	return &ensembleParams{
		doc:        doc,
		canonical:  canonical,
		topologyID: doc.Topology,
		scenarioID: store.ContentID(canonical),
		cfg:        cfg,
	}, nil
}

// ---- per-client quotas and the in-memory topology index ----

// clientQuota is one client's write-budget ledger.
type clientQuota struct {
	objects int
	bytes   int64
}

// uploadState indexes uploaded topologies and tracks per-client write
// budgets. The ledger is in-memory per process: it resets on restart
// and eviction by store GC does not refund it.
type uploadState struct {
	maxObjects int
	maxBytes   int64

	mu         sync.Mutex
	topologies map[string]*uploadedTopology
	clients    map[string]*clientQuota

	uploaded *obs.Counter
	denied   *obs.Counter
}

func newUploadState(opt Options) *uploadState {
	rec := obs.Default()
	return &uploadState{
		maxObjects: opt.QuotaObjects,
		maxBytes:   opt.QuotaBytes,
		topologies: make(map[string]*uploadedTopology),
		clients:    make(map[string]*clientQuota),
		uploaded:   rec.Counter("serve.uploads_stored"),
		denied:     rec.Counter("serve.uploads_quota_denied"),
	}
}

// topology resolves an uploaded topology by content id.
func (u *uploadState) topology(id string) (*uploadedTopology, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	t, ok := u.topologies[id]
	return t, ok
}

// topologyList snapshots the uploaded topologies, sorted by id.
func (u *uploadState) topologyList() []*uploadedTopology {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]*uploadedTopology, 0, len(u.topologies))
	for _, t := range u.topologies {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// add indexes a topology (idempotent by content id).
func (u *uploadState) add(t *uploadedTopology) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.topologies[t.id]; ok {
		return false
	}
	u.topologies[t.id] = t
	return true
}

// charge debits one client's budget by objects and size, rejecting
// with a typed quota_exceeded error when either budget would overflow.
func (u *uploadState) charge(client string, objects int, size int64) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	q := u.clients[client]
	if q == nil {
		q = &clientQuota{}
		u.clients[client] = q
	}
	if q.objects+objects > u.maxObjects {
		u.denied.Inc()
		return quotaExceededf("object quota exhausted (%d of %d stored)", q.objects, u.maxObjects)
	}
	if q.bytes+size > u.maxBytes {
		u.denied.Inc()
		return quotaExceededf("byte quota exhausted (%d of %d bytes stored)", q.bytes, u.maxBytes)
	}
	q.objects += objects
	q.bytes += size
	u.uploaded.Inc()
	return nil
}

// headroom checks that the client can still store objects without
// charging — used at job submit so a doomed generation fails fast.
func (u *uploadState) headroom(client string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if q := u.clients[client]; q != nil && q.objects+1 > u.maxObjects {
		u.denied.Inc()
		return quotaExceededf("object quota exhausted (%d of %d stored)", q.objects, u.maxObjects)
	}
	return nil
}

// ClientKey identifies the quota principal: the X-Client-ID header when
// set (trimmed, capped), else the remote host. The router forwards it
// as the X-Client-ID of every proxied request, so a client behind the
// router is charged as itself, not as the router's address.
func ClientKey(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// readUploadBody reads at most MaxUploadBytes, converting the
// over-limit error to the typed payload_too_large rejection.
func (s *Server) readUploadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errPayloadTooLarge(s.opt.MaxUploadBytes)
		}
		return nil, badRequestf("reading body: %v", err)
	}
	return data, nil
}

// ---- POST /v1/topologies ----

func (s *Server) handleTopologyUpload(w http.ResponseWriter, r *http.Request) error {
	if s.closed.Load() {
		return errShuttingDown()
	}
	data, err := s.readUploadBody(w, r)
	if err != nil {
		return err
	}
	t, err := parseTopologyUpload(data, s.opt)
	if err != nil {
		return err
	}
	if _, ok := s.uploads.topology(t.id); ok {
		return writeJSONStatus(w, http.StatusOK, topologyResponse(t, false))
	}
	if err := s.uploads.charge(ClientKey(r), 1, int64(len(t.canonical))); err != nil {
		return err
	}
	if st := s.opt.Store; st != nil {
		if _, err := st.Put("topology", t.id, t.canonical); err != nil {
			return fmt.Errorf("persisting topology: %w", err)
		}
	}
	s.uploads.add(t)
	w.Header().Set("Location", "/v1/topologies")
	return writeJSONStatus(w, http.StatusCreated, topologyResponse(t, true))
}

func topologyResponse(t *uploadedTopology, created bool) map[string]any {
	return map[string]any{
		"topology_id": t.id,
		"name":        t.doc.Name,
		"assets":      len(t.doc.Assets),
		"vertices":    len(t.doc.Terrain.Coastline),
		"zones":       len(t.doc.Terrain.Zones),
		"bytes":       len(t.canonical),
		"created":     created,
	}
}

// ---- GET /v1/topologies ----

func (s *Server) handleTopologyList(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	list := s.uploads.topologyList()
	out := make([]map[string]any, 0, len(list))
	for _, t := range list {
		out = append(out, map[string]any{
			"topology_id": t.id,
			"name":        t.doc.Name,
			"assets":      len(t.doc.Assets),
			"vertices":    len(t.doc.Terrain.Coastline),
			"zones":       len(t.doc.Terrain.Zones),
			"bytes":       len(t.canonical),
		})
	}
	return writeJSON(w, map[string]any{"topologies": out})
}

// ---- store warm restart ----

// loadStore re-indexes persisted topologies and ensembles at New so a
// restarted server serves previous uploads without re-upload. Entries
// that fail to parse are dropped (with a counter) rather than failing
// startup; quota ledgers are not reconstructed.
func (s *Server) loadStore() error {
	st := s.opt.Store
	if st == nil {
		return nil
	}
	loadErrs := obs.Default().Counter("serve.store_load_errors")
	for _, ent := range st.List("topology") {
		data, err := st.Get("topology", ent.ID)
		if err != nil {
			loadErrs.Inc()
			continue
		}
		t, err := parseTopologyUpload(data, s.opt)
		if err != nil || t.id != ent.ID {
			loadErrs.Inc()
			st.Delete("topology", ent.ID)
			continue
		}
		s.uploads.add(t)
	}
	for _, ent := range st.List("ensemble") {
		data, err := st.Get("ensemble", ent.ID)
		if err != nil {
			loadErrs.Inc()
			continue
		}
		hash, err := strconv.ParseUint(ent.ID, 16, 64)
		if err != nil {
			loadErrs.Inc()
			st.Delete("ensemble", ent.ID)
			continue
		}
		e, err := hazard.ReadJSON(bytes.NewReader(data))
		if err != nil {
			loadErrs.Inc()
			st.Delete("ensemble", ent.ID)
			continue
		}
		if err := s.registerEnsemble(uploadedEnsembleName(ent.ID), e, hash); err != nil {
			loadErrs.Inc()
			continue
		}
	}
	return nil
}

// uploadedEnsembleName names the ensemble generated from one scenario
// id; the prefix keeps user scenarios from colliding with the names
// the operator loaded at startup.
func uploadedEnsembleName(scenarioID string) string { return "u-" + scenarioID }
