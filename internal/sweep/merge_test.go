package sweep_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/harness"
)

// TestMergeDeterminism is the acceptance property of the sweep engine:
// splitting any experiment's quick grid into chunks, evaluating them
// through the wire format and merging them must reproduce the sequential
// table byte-for-byte — Render and CSV alike. A local-only coordinator
// runs the grid at chunk sizes 1, 2 and N+3 (one chunk holding every
// point), and its agent stats must account for every point and row.
func TestMergeDeterminism(t *testing.T) {
	for _, e := range harness.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want := e.Run(true)
			wantRender, wantCSV := want.Render(), want.CSV()
			n := e.Grid(true).N
			for _, chunk := range []int{1, 2, n + 3} {
				c := &cluster.Coordinator{Quick: true, ChunkPoints: chunk}
				res, err := c.Run(e)
				if err != nil {
					t.Fatalf("chunk=%d: %v", chunk, err)
				}
				if got := res.Table.Render(); got != wantRender {
					t.Errorf("chunk=%d: merged Render differs from sequential:\n--- merged\n%s--- sequential\n%s",
						chunk, got, wantRender)
				}
				if got := res.Table.CSV(); got != wantCSV {
					t.Errorf("chunk=%d: merged CSV differs from sequential", chunk)
				}
				var pts, rows int
				for _, a := range res.Agents {
					pts += a.Points
					rows += a.Rows
				}
				if pts != n || rows != len(want.Rows) {
					t.Errorf("chunk=%d: agent stats %d points/%d rows, want %d/%d",
						chunk, pts, rows, n, len(want.Rows))
				}
			}
		})
	}
}
