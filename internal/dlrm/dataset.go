package dlrm

import (
	"fmt"

	"rambda/internal/sim"
)

// Category parameterizes a synthetic dataset modeled after one Amazon
// Review category (the paper evaluates electronics, clothing-shoe-
// jewelry, home-kitchen, books, sports-outdoors, office-products with
// MERCI's clustering). Rows and query shapes follow the relative sizes
// reported by the MERCI paper; co-occurrence is expressed as bundles —
// groups of items that appear together — with Zipf-distributed bundle
// popularity so that a 0.25x memo budget captures most sub-queries.
type Category struct {
	Name string
	// Rows is the embedding table height.
	Rows int
	// BundleSize is the number of items per correlated bundle.
	BundleSize int
	// BundlesPerQuery and SinglesPerQuery shape query lengths.
	BundlesPerQuery int
	SinglesPerQuery int
	// BundleSkew is the Zipf theta of bundle popularity.
	BundleSkew float64
}

// AmazonCategories are the six evaluation datasets (scaled to simulator
// size; see DESIGN.md on scaling).
var AmazonCategories = []Category{
	{Name: "Electronics", Rows: 160_000, BundleSize: 4, BundlesPerQuery: 6, SinglesPerQuery: 8, BundleSkew: 0.9},
	{Name: "Clothing", Rows: 240_000, BundleSize: 3, BundlesPerQuery: 5, SinglesPerQuery: 6, BundleSkew: 0.9},
	{Name: "Home", Rows: 180_000, BundleSize: 4, BundlesPerQuery: 5, SinglesPerQuery: 10, BundleSkew: 0.85},
	{Name: "Books", Rows: 360_000, BundleSize: 5, BundlesPerQuery: 8, SinglesPerQuery: 12, BundleSkew: 0.95},
	{Name: "Sports", Rows: 140_000, BundleSize: 3, BundlesPerQuery: 4, SinglesPerQuery: 7, BundleSkew: 0.9},
	{Name: "Office", Rows: 100_000, BundleSize: 4, BundlesPerQuery: 4, SinglesPerQuery: 5, BundleSkew: 0.85},
}

// Query is one inference request: correlated bundles plus independent
// single items. Weights apply under AggDot.
type Query struct {
	Bundles []int
	Singles []int
}

// NumItems returns the total embedding rows the query touches
// un-memoized.
func (q Query) NumItems(bundleSize int) int {
	return len(q.Bundles)*bundleSize + len(q.Singles)
}

// Dataset is an instantiated category: its bundle definitions and a
// deterministic query stream.
type Dataset struct {
	Cat     Category
	Bundles [][]int

	rng        *sim.RNG
	bundleZipf *sim.Zipf
}

// NewDataset materializes a category with a deterministic seed.
// Bundles partition the front half of the table (hottest-first, as
// MERCI's clustering reorders items); singles draw from the whole
// table.
func NewDataset(cat Category, seed uint64) *Dataset {
	if cat.BundleSize < 1 || cat.BundlesPerQuery < 0 || cat.SinglesPerQuery < 0 {
		panic(fmt.Sprintf("dlrm: bad category %q: bundle size %d, %d bundles and %d singles per query",
			cat.Name, cat.BundleSize, cat.BundlesPerQuery, cat.SinglesPerQuery))
	}
	nBundles := cat.Rows / (2 * cat.BundleSize)
	// A query draws distinct bundles, so it needs at least that many.
	if nBundles < max(1, cat.BundlesPerQuery) {
		panic(fmt.Sprintf("dlrm: bad category %q: %d rows make %d bundles, %d wanted per query",
			cat.Name, cat.Rows, nBundles, cat.BundlesPerQuery))
	}
	// Bundle b is items [b*BundleSize, (b+1)*BundleSize): one backing
	// array holds them all, each bundle capped at its own length.
	items := make([]int, nBundles*cat.BundleSize)
	for i := range items {
		items[i] = i
	}
	bundles := make([][]int, nBundles)
	for b := range bundles {
		bundles[b] = items[b*cat.BundleSize : (b+1)*cat.BundleSize : (b+1)*cat.BundleSize]
	}
	rng := sim.NewRNG(seed)
	return &Dataset{
		Cat:        cat,
		Bundles:    bundles,
		rng:        rng,
		bundleZipf: sim.NewZipf(rng, uint64(nBundles), cat.BundleSkew),
	}
}

// NextQuery draws the next query into fresh slices; hot paths use
// NextQueryInto.
func (d *Dataset) NextQuery() Query {
	var q Query
	d.NextQueryInto(&q)
	return q
}

// NextQueryInto refills q from the stream, reusing its backing slices.
// The RNG draw and rejection sequence is identical to the allocating
// form: bundle dedup is a linear scan over the (at most a handful of)
// bundles drawn so far, replacing the per-query map that dominated the
// fig13 allocation profile together with Table.Row.
func (d *Dataset) NextQueryInto(q *Query) {
	q.Bundles = q.Bundles[:0]
	q.Singles = q.Singles[:0]
drawing:
	for len(q.Bundles) < d.Cat.BundlesPerQuery {
		b := int(d.bundleZipf.Next())
		for _, prev := range q.Bundles {
			if prev == b {
				continue drawing
			}
		}
		q.Bundles = append(q.Bundles, b)
	}
	for i := 0; i < d.Cat.SinglesPerQuery; i++ {
		q.Singles = append(q.Singles, d.rng.Intn(d.Cat.Rows))
	}
}
