package rr

import (
	"encoding/json"
	"fmt"

	"optrr/internal/strictjson"
)

// JSON serialization for RR matrices, so optimized matrices can be persisted
// and shipped to the clients that apply them. The wire form is explicit
// about the orientation to prevent silent transposition bugs:
//
//	{"categories": 3, "columns": [[...], [...], [...]]}
//
// where columns[i][j] = θ_{j,i} = P(report c_j | true value c_i), and every
// column sums to 1. Validation runs on decode, so a hand-edited file that
// breaks stochasticity is rejected.

type matrixJSON struct {
	Categories int         `json:"categories"`
	Columns    [][]float64 `json:"columns"`
}

// MarshalJSON implements json.Marshaler.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	n := m.N()
	cols := make([][]float64, n)
	for i := 0; i < n; i++ {
		cols[i] = m.Column(i)
	}
	return json.Marshal(matrixJSON{Categories: n, Columns: cols})
}

// UnmarshalJSON implements json.Unmarshaler, validating the RR invariants.
// data must hold the one matrix (see DecodeMatrix).
func (m *Matrix) UnmarshalJSON(data []byte) error {
	c := strictjson.New(data)
	decoded, err := DecodeMatrix(c)
	if err != nil {
		return err
	}
	if err := c.End(); err != nil {
		return fmt.Errorf("rr: decoding matrix: %w", err)
	}
	m.m = decoded.m
	m.samplers.Store(nil)
	m.inv.Store(nil)
	return nil
}

// DecodeMatrix reads a matrix in its JSON form at c, under strictjson's
// grammar, and validates it as FromColumns does. The entries are parsed in
// one pass into one buffer.
func DecodeMatrix(c *strictjson.Cursor) (*Matrix, error) {
	var (
		categories int
		entries    []float64 // every column's entries, one column after another
		lengths    []int     // each column's entry count
	)
	err := c.Object(
		strictjson.Member{Name: "categories", Read: func(c *strictjson.Cursor) (err error) {
			categories, err = c.Int()
			return err
		}},
		strictjson.Member{Name: "columns", Read: func(c *strictjson.Cursor) error {
			return c.Array(func(c *strictjson.Cursor) (err error) {
				n := len(entries)
				entries, err = c.AppendFloats(entries)
				lengths = append(lengths, len(entries)-n)
				return err
			})
		}},
	)
	if err != nil {
		return nil, fmt.Errorf("rr: decoding matrix: %w", err)
	}
	if categories != len(lengths) {
		return nil, fmt.Errorf("%w: %d categories but %d columns", ErrShape, categories, len(lengths))
	}
	cols := make([][]float64, len(lengths))
	for i, n := range lengths {
		cols[i], entries = entries[:n:n], entries[n:]
	}
	return FromColumns(cols)
}
