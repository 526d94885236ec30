package autoncs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/netlist"
	"repro/internal/xbar"
)

// The compile artifact is the resumable form of a Result: everything a
// delta recompile needs to warm-start from a previous compile — the hybrid
// assignment, the placement coordinates, and the committed routing paths —
// plus the config vector the compile ran under, so a consumer can refuse to
// resume under an incompatible configuration. Derivable state (the netlist,
// the congestion map, the cost report) is rebuilt on restore rather than
// stored; diagnostic state (stage times, the ISC trace) is dropped.

// artifactFormat tags the serialized artifact. Bump it when the layout or
// the meaning of any stored field changes, so stale cached artifacts are
// rejected instead of misread.
const artifactFormat = "autoncs-artifact/v1"

// maxArtifactBins caps the routing grid Restore allocates, whatever extent
// the stored placement claims. An n=400 compile routes its 448 cells on
// 2679 bins, about six per cell; the cap is 4M bins (32 MiB of usage
// counters), room for over half a million cells.
const maxArtifactBins = 1 << 22

// ArtifactError reports artifact contents no compile produces: an
// assignment neuron id outside [0, N) or an N above the network parser's
// cap (DecodeArtifact), a non-finite coordinate or wire length, or a
// routing grid larger than the one the router builds over the stored
// placement (Restore). Artifacts arrive from disk caches and fleet peers,
// so these are checked before anything indexes or allocates by them.
type ArtifactError struct {
	Field  string // the offending field, e.g. "placement[3]" or "routing grid"
	Reason string
}

func (e *ArtifactError) Error() string {
	return fmt.Sprintf("autoncs: artifact %s: %s", e.Field, e.Reason)
}

type artifactJSON struct {
	Format       string          `json:"format"`
	ConfigVector string          `json:"config_vector"`
	Assignment   json.RawMessage `json:"assignment"`
	Placement    *placementJSON  `json:"placement,omitempty"`
	Routing      *routingJSON    `json:"routing,omitempty"`
}

type placementJSON struct {
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
	MinX float64   `json:"min_x"`
	MinY float64   `json:"min_y"`
	MaxX float64   `json:"max_x"`
	MaxY float64   `json:"max_y"`
	HPWL float64   `json:"hpwl"`
}

type routingJSON struct {
	Cols          int       `json:"cols"`
	Rows          int       `json:"rows"`
	FinalCapacity int       `json:"final_capacity"`
	Negotiated    bool      `json:"negotiated"`
	Paths         [][]int   `json:"paths"`
	WireLength    []float64 `json:"wire_length"`
}

// EncodeArtifact serializes the resumable portion of a compile result,
// stamped with the config vector of the configuration that produced it. The
// encoding is deterministic: one (Result, Config) pair always yields the
// same bytes. Results compiled with SkipPhysical produce an artifact with
// no placement or routing section; a delta resumed from one re-runs the
// physical stages from scratch.
func EncodeArtifact(res *Result, cfg Config) ([]byte, error) {
	if res == nil || res.Assignment == nil {
		return nil, fmt.Errorf("autoncs: encoding artifact of a result with no assignment")
	}
	var ab bytes.Buffer
	if err := res.Assignment.WriteJSON(&ab); err != nil {
		return nil, fmt.Errorf("autoncs: encoding artifact assignment: %w", err)
	}
	art := artifactJSON{
		Format:       artifactFormat,
		ConfigVector: ConfigVectorHashHex(cfg),
		Assignment:   json.RawMessage(ab.Bytes()),
	}
	if res.Placement != nil && res.Routing != nil {
		pl := res.Placement
		art.Placement = &placementJSON{
			X: pl.X, Y: pl.Y,
			MinX: pl.MinX, MinY: pl.MinY, MaxX: pl.MaxX, MaxY: pl.MaxY,
			HPWL: pl.HPWL,
		}
		rt := res.Routing
		art.Routing = &routingJSON{
			Cols: rt.Cols, Rows: rt.Rows,
			FinalCapacity: rt.FinalCapacity,
			Negotiated:    rt.Negotiated,
			Paths:         rt.Paths,
			WireLength:    rt.WireLength,
		}
	}
	data, err := json.Marshal(art)
	if err != nil {
		return nil, fmt.Errorf("autoncs: encoding artifact: %w", err)
	}
	return data, nil
}

// Artifact is a decoded compile artifact: the resumable pieces plus the
// config vector they were produced under. Restore turns it back into a
// Result.
type Artifact struct {
	// ConfigVector is the lowercase-hex ConfigVectorHash of the producing
	// configuration. A delta recompile must run under a config with the
	// same vector, or the warm-start data is meaningless.
	ConfigVector string
	// Assignment is the hybrid mapping.
	Assignment *Assignment
	// Placement and Routing are the physical-design artifacts, nil when the
	// producing compile ran with SkipPhysical.
	Placement *Placement
	Routing   *Routing
}

// DecodeArtifact parses an artifact produced by EncodeArtifact.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var art artifactJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&art); err != nil {
		return nil, fmt.Errorf("autoncs: decoding artifact: %w", err)
	}
	if art.Format != artifactFormat {
		return nil, fmt.Errorf("autoncs: artifact format %q, want %q", art.Format, artifactFormat)
	}
	if len(art.ConfigVector) != 64 {
		return nil, fmt.Errorf("autoncs: artifact config vector %q is not a sha256 hex digest", art.ConfigVector)
	}
	a, err := xbar.ReadJSON(bytes.NewReader(art.Assignment))
	var fe *xbar.FieldError
	if errors.As(err, &fe) {
		return nil, &ArtifactError{Field: "assignment " + fe.Field, Reason: fe.Reason}
	}
	if err != nil {
		return nil, fmt.Errorf("autoncs: decoding artifact assignment: %w", err)
	}
	out := &Artifact{ConfigVector: art.ConfigVector, Assignment: a}
	if (art.Placement == nil) != (art.Routing == nil) {
		return nil, fmt.Errorf("autoncs: artifact carries placement xor routing; both or neither required")
	}
	if art.Placement != nil {
		p := art.Placement
		if len(p.X) != len(p.Y) {
			return nil, fmt.Errorf("autoncs: artifact placement has %d x, %d y coordinates", len(p.X), len(p.Y))
		}
		out.Placement = &Placement{
			X: p.X, Y: p.Y,
			MinX: p.MinX, MinY: p.MinY, MaxX: p.MaxX, MaxY: p.MaxY,
			HPWL: p.HPWL,
		}
		r := art.Routing
		if len(r.Paths) != len(r.WireLength) {
			return nil, fmt.Errorf("autoncs: artifact routing has %d paths, %d wire lengths", len(r.Paths), len(r.WireLength))
		}
		if r.Cols <= 0 || r.Rows <= 0 {
			return nil, fmt.Errorf("autoncs: artifact routing grid %dx%d", r.Cols, r.Rows)
		}
		out.Routing = &Routing{
			Cols: r.Cols, Rows: r.Rows,
			FinalCapacity: r.FinalCapacity,
			Negotiated:    r.Negotiated,
			Paths:         r.Paths,
			WireLength:    r.WireLength,
		}
	}
	return out, nil
}

// Restore rebuilds a full Result from the artifact under cfg, which must
// carry the same config vector the artifact was stamped with (the caller
// checks that — Restore only needs cfg for the derivable state). The
// netlist is rebuilt from the assignment, the routed total and congestion
// map from the stored paths, and the cost report re-evaluated; all are
// bit-identical to the original compile's because every one is a
// deterministic function of the stored state.
func (a *Artifact) Restore(cfg Config) (*Result, error) {
	res := &Result{Assignment: a.Assignment, Device: cfg.Device}
	if a.Placement == nil {
		return res, nil
	}
	if err := a.checkPhysical(cfg.Route.Theta); err != nil {
		return nil, err
	}
	nl, err := netlist.Build(a.Assignment, cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("autoncs: restoring artifact netlist: %w", err)
	}
	if len(nl.Cells) != len(a.Placement.X) {
		return nil, fmt.Errorf("autoncs: artifact placement covers %d cells, netlist has %d",
			len(a.Placement.X), len(nl.Cells))
	}
	if len(nl.Wires) != len(a.Routing.Paths) {
		return nil, fmt.Errorf("autoncs: artifact routing covers %d wires, netlist has %d",
			len(a.Routing.Paths), len(nl.Wires))
	}
	rt := a.Routing
	rt.Total = 0
	for _, l := range rt.WireLength {
		rt.Total += l
	}
	rt.Usage = make([]int, rt.Cols*rt.Rows)
	for _, path := range rt.Paths {
		for _, b := range path {
			if b < 0 || b >= len(rt.Usage) {
				return nil, fmt.Errorf("autoncs: artifact path bin %d outside %dx%d grid", b, rt.Cols, rt.Rows)
			}
			rt.Usage[b]++
		}
	}
	rep, err := cost.Evaluate(nl, a.Placement, rt, cfg.Device, cfg.Cost)
	if err != nil {
		return nil, fmt.Errorf("autoncs: restoring artifact cost report: %w", err)
	}
	res.Netlist, res.Placement, res.Routing, res.Report = nl, a.Placement, rt, rep
	return res, nil
}

// checkPhysical validates the physical sections before Restore sizes any
// allocation from them: every coordinate and wire length is finite, and
// the routing grid is no larger than the one route builds over this
// placement with theta-wide bins, nor than maxArtifactBins.
func (a *Artifact) checkPhysical(theta float64) error {
	pl, rt := a.Placement, a.Routing
	if rt == nil {
		return &ArtifactError{Field: "routing", Reason: "missing beside a placement"}
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i := range pl.X {
		if !finite(pl.X[i]) || !finite(pl.Y[i]) {
			return &ArtifactError{Field: fmt.Sprintf("placement[%d]", i),
				Reason: fmt.Sprintf("non-finite coordinate (%g, %g)", pl.X[i], pl.Y[i])}
		}
	}
	for _, v := range []float64{pl.MinX, pl.MinY, pl.MaxX, pl.MaxY, pl.HPWL} {
		if !finite(v) {
			return &ArtifactError{Field: "placement bounds",
				Reason: fmt.Sprintf("non-finite value in [%g, %g]x[%g, %g] hpwl %g", pl.MinX, pl.MaxX, pl.MinY, pl.MaxY, pl.HPWL)}
		}
	}
	for i, l := range rt.WireLength {
		if !finite(l) {
			return &ArtifactError{Field: fmt.Sprintf("wire_length[%d]", i), Reason: fmt.Sprintf("non-finite length %g", l)}
		}
	}
	// Route's grid is ceil(max(extent, theta)/theta)+1 bins per axis. The
	// comparison stays in float64 so an absurd extent cannot overflow an
	// int conversion; the cap bounds what that extent can claim.
	maxCols := math.Ceil(math.Max(pl.Width(), theta)/theta) + 1
	maxRows := math.Ceil(math.Max(pl.Height(), theta)/theta) + 1
	if rt.Cols < 1 || rt.Rows < 1 || float64(rt.Cols) > maxCols || float64(rt.Rows) > maxRows ||
		rt.Cols > maxArtifactBins/rt.Rows {
		return &ArtifactError{Field: "routing grid",
			Reason: fmt.Sprintf("%dx%d bins; the placement routes on at most %gx%g, and the cap is %d bins",
				rt.Cols, rt.Rows, maxCols, maxRows, maxArtifactBins)}
	}
	return nil
}
