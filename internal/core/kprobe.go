package core

import (
	"fepia/internal/optimize"
	"fepia/internal/vec"
)

// k-probe bridge: adapts a Feature.ImpactK batch evaluator to the
// optimize.FuncK the level-set search feeds probe blocks through. Each
// incoming probe (a P-space point for combined searches, a single parameter
// block for single-parameter searches) is converted to a full native
// vector; probes answered by the impact cache are filtered out and only the
// misses reach ImpactK, batched in one call. Values are bit-identical to
// the scalar path by the ImpactK contract (Validate spot-checks it), so
// k-probe searches return exactly the radii scalar searches do.

// impactFK builds the FuncK for one boundary search of feature i.
//
// Combined mode (d non-nil): probes are P-space points of dimension
// TotalDim; native = probe / d elementwise. Single-parameter mode (d nil):
// probes are blocks of parameter j; template holds the full native vector
// with every other block frozen at π^orig, and blockOff is block j's offset
// in it. The returned closure owns growable row buffers sized on first use
// (the search calls it with up to KBlock scan probes, or 2n gradient
// probes) and reuses them for every call of the search.
func (a *Analysis) impactFK(g *guard, i int, d vec.V, blockOff int, template vec.V) optimize.FuncK {
	fk := g.wrapK(a.Features[i].ImpactK)
	cache := a.cache
	n := a.TotalDim()
	var (
		back     []float64
		rows     []vec.V
		kout     []float64
		keys     []cacheKey
		miss     []int
		missRows []vec.V
	)
	return func(xs [][]float64, out []float64) {
		k := len(xs)
		if len(rows) < k {
			back = make([]float64, k*n)
			rows = make([]vec.V, k)
			for p := range rows {
				rows[p] = vec.V(back[p*n : (p+1)*n])
				if template != nil {
					copy(rows[p], template)
				}
			}
			kout = make([]float64, k)
			if cache != nil {
				keys = make([]cacheKey, k)
				words := make([]uint64, k*(n+1))
				for p := range keys {
					keys[p].words = words[p*(n+1) : p*(n+1) : (p+1)*(n+1)]
				}
			}
		}
		miss, missRows = miss[:0], missRows[:0]
		for p := 0; p < k; p++ {
			nat := rows[p]
			if d != nil {
				vec.DivInto(nat, vec.V(xs[p]), d)
			} else {
				copy(nat[blockOff:blockOff+len(xs[p])], xs[p])
			}
			if cache != nil {
				keys[p].set(i, nat)
				if v, ok := cache.get(&keys[p]); ok {
					out[p] = v
					continue
				}
			}
			miss = append(miss, p)
			missRows = append(missRows, nat)
		}
		if len(miss) == 0 {
			return
		}
		ko := kout[:len(miss)]
		fk(missRows, ko)
		for q, p := range miss {
			out[p] = ko[q]
			if cache != nil {
				cache.put(&keys[p], ko[q]) // refuses NaN/Inf: faults are never cached
			}
		}
	}
}
