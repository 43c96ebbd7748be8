package locate

import "serpentine/internal/geometry"

// MatrixCost is implemented by cost models that can fill a dense
// src × dst locate-time matrix faster than repeated LocateTime calls.
// Schedulers that build cost matrices (LOSS, SLTF) type-assert for it
// and fall back to per-call evaluation otherwise.
type MatrixCost interface {
	Cost
	// CostMatrix fills buf[i*len(dsts)+j] = LocateTime(srcs[i],
	// dsts[j]) for every pair. buf must hold at least
	// len(srcs)*len(dsts) entries; the fill touches nothing beyond
	// that prefix.
	CostMatrix(buf []float64, srcs, dsts []int)
}

// FillCostMatrix fills buf[i*len(dsts)+j] = c.LocateTime(srcs[i],
// dsts[j]), using the batched fast path when c provides one.
func FillCostMatrix(c Cost, buf []float64, srcs, dsts []int) {
	if mc, ok := c.(MatrixCost); ok {
		mc.CostMatrix(buf, srcs, dsts)
		return
	}
	k := len(dsts)
	for i, s := range srcs {
		row := buf[i*k : (i+1)*k]
		for j, d := range dsts {
			row[j] = c.LocateTime(s, d)
		}
	}
}

// costTile is the number of destinations whose section records and
// positions CostMatrix looks up once and reuses down every row.
const costTile = 64

// CostMatrix implements MatrixCost. It works through the destinations
// a tile at a time: each destination's section and position are
// looked up once per tile, each source's once per tile row.
func (m *Model) CostMatrix(buf []float64, srcs, dsts []int) {
	k := len(dsts)
	var ds [costTile]*geometry.Section
	var dp [costTile]float64
	for j0 := 0; j0 < k; j0 += costTile {
		tile := dsts[j0:min(j0+costTile, k)]
		for j, d := range tile {
			ds[j] = m.view.SectionOf(d)
			dp[j] = ds[j].Pos(d)
		}
		for i, src := range srcs {
			ss := m.view.SectionOf(src)
			sp := ss.Pos(src)
			row := buf[i*k+j0 : i*k+j0+len(tile)]
			for j, dst := range tile {
				if src == dst {
					row[j] = 0
					continue
				}
				row[j] = m.locate(ss, sp, src, ds[j], dp[j], dst)
			}
		}
	}
}

// CostMatrix implements MatrixCost for the perturbed decorator: the
// base matrix is filled batched, then the Figure 10 alternating-sign
// error is applied per destination.
func (p *Perturbed) CostMatrix(buf []float64, srcs, dsts []int) {
	FillCostMatrix(p.Base, buf, srcs, dsts)
	k := len(dsts)
	for i := range srcs {
		row := buf[i*k : (i+1)*k]
		for j, d := range dsts {
			// Note: LocateTime(x, x) is perturbed too, matching the
			// per-call decorator exactly.
			t := row[j]
			if d%2 == 0 {
				t += p.E
			} else {
				t -= p.E
			}
			if t < 0 {
				t = 0
			}
			row[j] = t
		}
	}
}

// referenceCost evaluates every estimate through the original
// piecewise decomposition, bypassing the section-record fast path and the
// batched matrix fill. It deliberately does not implement MatrixCost,
// so schedulers handed one exercise their per-call fallback paths.
// Equivalence tests compare plans and times produced against it
// bit-for-bit with the fast path.
type referenceCost struct {
	m *Model
}

// Reference returns a Cost that evaluates estimates through the
// original piecewise decomposition rather than the section-record
// fast path. It exists for the fast-path equivalence tests.
func (m *Model) Reference() Cost { return referenceCost{m} }

func (r referenceCost) LocateTime(src, dst int) float64 { return r.m.referenceLocateTime(src, dst) }
func (r referenceCost) ReadTime(lbn int) float64        { return r.m.referenceReadTime(lbn) }
func (r referenceCost) FullReadTime() float64           { return r.m.FullReadTime() }
func (r referenceCost) View() *geometry.View            { return r.m.View() }
func (r referenceCost) Segments() int                   { return r.m.Segments() }
