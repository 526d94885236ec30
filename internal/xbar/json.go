package xbar

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// The JSON schema is the natural structure of an Assignment; edges are
// [from, to] pairs to keep files compact.

type assignmentJSON struct {
	Version   int            `json:"version"`
	N         int            `json:"neurons"`
	Total     int            `json:"connections"`
	Crossbars []crossbarJSON `json:"crossbars"`
	Synapses  [][2]int       `json:"synapses"`
}

type crossbarJSON struct {
	Size    int      `json:"size"`
	Inputs  []int    `json:"inputs"`
	Outputs []int    `json:"outputs"`
	Conns   [][2]int `json:"conns"`
}

const jsonVersion = 1

// WriteJSON serializes the assignment.
func (a *Assignment) WriteJSON(w io.Writer) error {
	out := assignmentJSON{Version: jsonVersion, N: a.N, Total: a.Total}
	for _, cb := range a.Crossbars {
		cj := crossbarJSON{
			Size:    cb.Size,
			Inputs:  cb.Inputs,
			Outputs: cb.Outputs,
			Conns:   edgesToPairs(cb.Conns),
		}
		out.Crossbars = append(out.Crossbars, cj)
	}
	out.Synapses = edgesToPairs(a.Synapses)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// FieldError reports decoded assignment contents no compile produces: a
// neuron count above graph.MaxLoadNeurons, or a crossbar or synapse
// endpoint outside [0, N).
type FieldError struct {
	Field  string // the offending field, e.g. "synapses[3]" or "crossbars[0].inputs[2]"
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("xbar: assignment %s: %s", e.Field, e.Reason)
}

// ReadJSON parses an assignment previously written by WriteJSON. It rejects
// with a *FieldError any neuron id outside [0, N), so the decoded
// assignment is safe to index an N-neuron network with, and any N above
// graph.MaxLoadNeurons, the cap of the network file parser.
func ReadJSON(r io.Reader) (*Assignment, error) {
	var in assignmentJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	if in.Version != jsonVersion {
		return nil, fmt.Errorf("xbar: unsupported assignment version %d", in.Version)
	}
	if in.N < 0 || in.Total < 0 {
		return nil, fmt.Errorf("xbar: negative sizes in assignment")
	}
	if in.N > graph.MaxLoadNeurons {
		return nil, &FieldError{Field: "neurons", Reason: fmt.Sprintf("%d exceeds the %d-neuron limit", in.N, graph.MaxLoadNeurons)}
	}
	if err := in.checkIDs(); err != nil {
		return nil, err
	}
	a := &Assignment{N: in.N, Total: in.Total, Synapses: pairsToEdges(in.Synapses)}
	for _, cj := range in.Crossbars {
		a.Crossbars = append(a.Crossbars, Crossbar{
			Size:    cj.Size,
			Inputs:  cj.Inputs,
			Outputs: cj.Outputs,
			Conns:   pairsToEdges(cj.Conns),
		})
	}
	return a, nil
}

// checkIDs returns a *FieldError for the first neuron id outside [0, N).
// Field names are formatted only on failure.
func (in *assignmentJSON) checkIDs() error {
	out := func(v int) bool { return v < 0 || v >= in.N }
	fail := func(v int, field string, idx ...any) error {
		return &FieldError{Field: fmt.Sprintf(field, idx...), Reason: fmt.Sprintf("neuron %d out of range [0,%d)", v, in.N)}
	}
	pairs := func(ps [][2]int, field string, idx ...any) error {
		for i, p := range ps {
			for _, v := range p {
				if out(v) {
					return fail(v, field+"[%d]", append(idx, i)...)
				}
			}
		}
		return nil
	}
	for c, cj := range in.Crossbars {
		for i, v := range cj.Inputs {
			if out(v) {
				return fail(v, "crossbars[%d].inputs[%d]", c, i)
			}
		}
		for i, v := range cj.Outputs {
			if out(v) {
				return fail(v, "crossbars[%d].outputs[%d]", c, i)
			}
		}
		if err := pairs(cj.Conns, "crossbars[%d].conns", c); err != nil {
			return err
		}
	}
	return pairs(in.Synapses, "synapses")
}

// SaveJSON writes the assignment to a file.
func (a *Assignment) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xbar: %w", err)
	}
	defer f.Close()
	return a.WriteJSON(f)
}

// LoadJSON reads an assignment from a file.
func LoadJSON(path string) (*Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

func edgesToPairs(es []graph.Edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.From, e.To}
	}
	return out
}

func pairsToEdges(ps [][2]int) []graph.Edge {
	out := make([]graph.Edge, len(ps))
	for i, p := range ps {
		out[i] = graph.Edge{From: p[0], To: p[1]}
	}
	return out
}
