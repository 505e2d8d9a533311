package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/store"
)

// opKind is what one request asks the server to do.
type opKind uint8

const (
	kTile opKind = iota // sampled, density-weighted tile
	kTileExact
	kQueryExact
	kQueryFiltered
	kQueryMultirect
	kQuerySampled
	kNearest
	kAppend
	kDelete
)

// kindNames label op kinds in span names and reports.
var kindNames = [...]string{
	kTile: "tile", kTileExact: "tile_exact", kQueryExact: "query_exact",
	kQueryFiltered: "query_filtered", kQueryMultirect: "query_multirect",
	kQuerySampled: "query_sampled", kNearest: "nearest", kAppend: "append", kDelete: "delete",
}

const (
	tableName = "gps"
	// budget resolves to the largest pre-built sample under the Tableau
	// latency model (100ms over its 1.5s start-up admits 20 000 tuples).
	budget     = "1600ms"
	tileSize   = 256
	appendRows = 50
)

// op is one request of a workload: the bytes the HTTP client sends and the
// decoded form the naive model and the layered twin consume.
type op struct {
	kind opKind
	path string
	body []byte
	// check marks the seeded share of ops whose output is compared with
	// the model or the reference render after the repetition.
	check bool
	// barrier holds the op back until every earlier op has been answered.
	barrier bool

	z, x, y int          // tiles
	rects   []geom.Rect  // query viewport(s); delete rectangle
	filter  []store.Pred // filtered queries
	pt      geom.Point   // nearest
	k       int          // nearest
	pts     []geom.Point // append batch
}

func (o *op) method() string {
	if o.body != nil {
		return "POST"
	}
	return "GET"
}

// world is what the generators know about the served table.
type world struct {
	pts    []geom.Point
	bounds geom.Rect
}

func newWorld(pts []geom.Point) *world {
	return &world{pts: pts, bounds: geom.Bounds(pts)}
}

// gen builds seeded op lists. One gen per (workload, seed): the stream of
// random numbers, and therefore the op list, depends on nothing else.
type gen struct {
	*world
	rng *rand.Rand
}

func newGen(w *world, workload string, seed int64) *gen {
	h := sha256.Sum256([]byte(workload))
	salt := int64(h[0])<<16 | int64(h[1])<<8 | int64(h[2])
	return &gen{world: w, rng: rand.New(rand.NewSource(seed*1_000_003 + salt))}
}

func (g *gen) dataPoint() geom.Point { return g.pts[g.rng.Intn(len(g.pts))] }

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// viewport returns the rectangle of edge extent/2^z centred on c.
func (g *gen) viewport(c geom.Point, z int) geom.Rect {
	w := g.bounds.Width() / float64(int(1)<<z)
	h := g.bounds.Height() / float64(int(1)<<z)
	return geom.Rect{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2}
}

func rectParams(r geom.Rect) string {
	return "&minx=" + ff(r.MinX) + "&miny=" + ff(r.MinY) + "&maxx=" + ff(r.MaxX) + "&maxy=" + ff(r.MaxY)
}

func (g *gen) tileOp(z, x, y int, exact bool) op {
	o := op{kind: kTile, z: z, x: x, y: y}
	o.path = fmt.Sprintf("/v1/tile/%s/%d/%d/%d.png?size=%d&budget=%s", tableName, z, x, y, tileSize, budget)
	if exact {
		o.kind = kTileExact
		o.path += "&exact=true"
	} else {
		o.check = g.rng.Float64() < 0.01
	}
	return o
}

func (g *gen) queryOp(kind opKind, rects ...geom.Rect) op {
	o := op{kind: kind, rects: rects, check: g.rng.Float64() < 0.02}
	var sb strings.Builder
	sb.WriteString("/v1/query?table=" + tableName)
	if kind == kQuerySampled {
		sb.WriteString("&budget=" + budget)
	} else {
		sb.WriteString("&exact=true")
	}
	if kind == kQueryMultirect {
		for _, r := range rects {
			sb.WriteString("&rect=" + ff(r.MinX) + ":" + ff(r.MinY) + ":" + ff(r.MaxX) + ":" + ff(r.MaxY))
		}
	} else {
		sb.WriteString(rectParams(rects[0]))
	}
	if kind == kQueryFiltered {
		// The dashboard's "northern half" slice: y in [mid, max].
		mid := (g.bounds.MinY + g.bounds.MaxY) / 2
		o.filter = []store.Pred{{Column: "y", Min: mid, Max: g.bounds.MaxY}}
		sb.WriteString("&filter=y:" + ff(mid) + ":" + ff(g.bounds.MaxY))
	}
	o.path = sb.String()
	return o
}

func (g *gen) nearestOp(p geom.Point, k int) op {
	return op{
		kind: kNearest, pt: p, k: k, check: g.rng.Float64() < 0.02,
		path: "/v1/nearest?table=" + tableName + "&x=" + ff(p.X) + "&y=" + ff(p.Y) + "&k=" + strconv.Itoa(k),
	}
}

// tileSessions emits pan/zoom sessions until n tile requests exist. A
// session starts at zoom 2 over a random data point and takes 40 steps —
// zoom in 40 %, zoom out 15 %, pan one tile 45 % — fetching the (up to) 3×3
// block of tiles around its centre after each. Consecutive steps overlap,
// which is what gives the tile cache its hits.
func (g *gen) tileSessions(n int) []op {
	const minZ, maxZ, steps = 2, 9, 40
	ops := make([]op, 0, n+9)
	for len(ops) < n {
		c, z := g.dataPoint(), minZ
		for s := 0; s < steps && len(ops) < n; s++ {
			cx, cy, _ := geom.TileForPoint(g.bounds, c, z)
			tiles := geom.TileCount(z)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					x, y := cx+dx, cy+dy
					if x >= 0 && y >= 0 && x < tiles && y < tiles {
						ops = append(ops, g.tileOp(z, x, y, false))
					}
				}
			}
			switch r := g.rng.Float64(); {
			case r < 0.40 && z < maxZ:
				z++
			case r >= 0.40 && r < 0.55 && z > minZ:
				z--
			default:
				dir := [4][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}[g.rng.Intn(4)]
				c.X = geom.Clamp(c.X+dir[0]*g.bounds.Width()/float64(tiles), g.bounds.MinX, g.bounds.MaxX)
				c.Y = geom.Clamp(c.Y+dir[1]*g.bounds.Height()/float64(tiles), g.bounds.MinY, g.bounds.MaxY)
			}
		}
	}
	return ops[:n]
}

// Zoom range of query viewports: edge = extent / 2^z.
const queryMinZ, queryMaxZ = 5, 9

func (g *gen) queryZoom() int { return queryMinZ + g.rng.Intn(queryMaxZ-queryMinZ+1) }

// exactQueries emits the query_exact mix: 35 % exact viewport, 20 % the
// same with a y-range filter, 10 % two-rectangle union, 15 % sampled
// viewport, 20 % k-nearest (k in {1, 10, 100}), all centred on data points.
func (g *gen) exactQueries(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		vp := g.viewport(g.dataPoint(), g.queryZoom())
		switch r := g.rng.Float64(); {
		case r < 0.35:
			ops[i] = g.queryOp(kQueryExact, vp)
		case r < 0.55:
			ops[i] = g.queryOp(kQueryFiltered, vp)
		case r < 0.65:
			ops[i] = g.queryOp(kQueryMultirect, vp, g.viewport(g.dataPoint(), g.queryZoom()))
		case r < 0.80:
			ops[i] = g.queryOp(kQuerySampled, vp)
		default:
			ops[i] = g.nearestOp(vp.Center(), []int{1, 10, 100}[g.rng.Intn(3)])
		}
	}
	return ops
}

// firstLook emits what the first dashboards after a restart ask for: short
// pan/zoom sessions and a few queries, all against cold caches.
func (g *gen) firstLook(n int) []op {
	ops := g.tileSessions(n * 6 / 10)
	return append(ops, g.exactQueries(n-len(ops))...)
}

// ingestPlan is the geometry of ingest_mixed: appends are Gaussian around
// the hot spot A, deletes fall in zone B, and nothing is ever appended into
// B. Writes therefore commute, and the final live set does not depend on
// how the two clients interleave.
type ingestPlan struct {
	a     geom.Point
	sigma float64
	zoneB geom.Rect
}

// planIngest places A and B from the table alone, not from the seed: A is
// the centre of the most populated cell of a 32×32 grid over the extent
// (the hot spot a live feed would be appending to), B the most populated
// cell at least three cells from A and two from the border, so a delete
// inside it can never move the table's bounds. What a viewport "over A"
// costs depends on how dense A is; a seeded A would make every metric of
// the workload a property of the seed.
func (w *world) planIngest() ingestPlan {
	const cells = 32
	cw, ch := w.bounds.Width()/cells, w.bounds.Height()/cells
	var count [cells][cells]int
	for _, q := range w.pts {
		cx := min(int((q.X-w.bounds.MinX)/cw), cells-1)
		cy := min(int((q.Y-w.bounds.MinY)/ch), cells-1)
		count[cx][cy]++
	}
	cell := func(far bool, ax, ay int) (bx, by int) {
		best := -1
		for x := 2; x < cells-2; x++ {
			for y := 2; y < cells-2; y++ {
				if far && max(abs(x-ax), abs(y-ay)) < 3 {
					continue
				}
				if count[x][y] > best {
					best, bx, by = count[x][y], x, y
				}
			}
		}
		return bx, by
	}
	ax, ay := cell(false, 0, 0)
	bx, by := cell(true, ax, ay)
	corner := func(x, y int) geom.Point {
		return geom.Pt(w.bounds.MinX+float64(x)*cw, w.bounds.MinY+float64(y)*ch)
	}
	return ingestPlan{
		a:     geom.NewRect(corner(ax, ay), corner(ax+1, ay+1)).Center(),
		sigma: w.bounds.Width() / 400,
		zoneB: geom.NewRect(corner(bx, by), corner(bx+1, by+1)),
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (g *gen) appendOp(p ingestPlan) op {
	o := op{kind: kAppend, pts: make([]geom.Point, 0, appendRows)}
	rows := make([][2]float64, 0, appendRows)
	for len(o.pts) < appendRows {
		q := geom.Pt(
			geom.Clamp(p.a.X+g.rng.NormFloat64()*p.sigma, g.bounds.MinX, g.bounds.MaxX),
			geom.Clamp(p.a.Y+g.rng.NormFloat64()*p.sigma, g.bounds.MinY, g.bounds.MaxY))
		if p.zoneB.Contains(q) {
			continue
		}
		o.pts = append(o.pts, q)
		rows = append(rows, [2]float64{q.X, q.Y})
	}
	o.path = "/v1/append/" + tableName
	o.body, _ = json.Marshal(map[string]any{"points": rows}) // plain floats cannot fail to marshal
	return o
}

func (g *gen) deleteOp(p ingestPlan) op {
	w, h := p.zoneB.Width()/5, p.zoneB.Height()/5
	x := p.zoneB.MinX + g.rng.Float64()*(p.zoneB.Width()-w)
	y := p.zoneB.MinY + g.rng.Float64()*(p.zoneB.Height()-h)
	r := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	o := op{kind: kDelete, rects: []geom.Rect{r}, path: "/v1/delete/" + tableName}
	o.body, _ = json.Marshal(map[string]any{"rect": map[string]float64{
		"minX": r.MinX, "minY": r.MinY, "maxX": r.MaxX, "maxY": r.MaxY}})
	return o
}

// nearA returns a point jittered around the hot spot.
func (g *gen) nearA(p ingestPlan) geom.Point {
	return geom.Pt(p.a.X+g.rng.NormFloat64()*2*p.sigma, p.a.Y+g.rng.NormFloat64()*2*p.sigma)
}

// ingestMixed emits appends of 50 points (20 %), sampled (29 %) and exact
// (20 %) tiles over A and exact queries over A (30 %), and closes with a
// burst of deletes (1 %) behind a barrier.
//
// The deletes are not mixed in because the first baseline run found that
// they cannot be: an exact read that scans before a reclaiming compaction
// publishes and gathers after it is answered 500 "row out of range"
// (Planner.PlanCtx and server.renderTile take one table snapshot for the
// scan and another for Points). A compaction reclaims whenever tombstones
// exist, so with deletes among the reads about 1 op in 6 000 fails, and a
// benchmark's baseline has to be failure-free. Behind the barrier nothing
// reads while rows can be reclaimed. Mix them back in once that is fixed.
func (g *gen) ingestMixed(n int, p ingestPlan) []op {
	ops := make([]op, n)
	deletes := max(1, n/100)
	for i := range ops[:n-deletes] {
		switch r := g.rng.Float64() * 0.99; {
		case r < 0.20:
			ops[i] = g.appendOp(p)
		case r < 0.69:
			z := 5 + g.rng.Intn(5)
			x, y, _ := geom.TileForPoint(g.bounds, g.nearA(p), z)
			ops[i] = g.tileOp(z, x, y, r >= 0.49)
		default:
			ops[i] = g.queryOp(kQueryExact, g.viewport(g.nearA(p), 6+g.rng.Intn(5)))
			// The table changes under the request, so no model can say
			// what a mid-run answer should be; the final state is checked.
			ops[i].check = false
		}
	}
	for i := n - deletes; i < n; i++ {
		ops[i] = g.deleteOp(p)
	}
	ops[n-deletes].barrier = true
	return ops
}

// finalChecks are the fixed queries compared with the model once
// ingest_mixed has quiesced, and again after the restart: viewports over A
// and over B, and nearest-neighbour probes around A.
func (g *gen) finalChecks(p ingestPlan) []op {
	ops := make([]op, 0, 50)
	for i := 0; i < 30; i++ {
		ops = append(ops, g.queryOp(kQueryExact, g.viewport(g.nearA(p), 4+g.rng.Intn(6))))
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, g.queryOp(kQueryExact, g.viewport(p.zoneB.Center(), 3+g.rng.Intn(4))))
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, g.nearestOp(g.nearA(p), []int{1, 10, 100}[i%3]))
	}
	for i := range ops {
		ops[i].check = true
	}
	return ops
}

// opsHash fingerprints an op list: same seed, same hash.
func opsHash(ops []op) string {
	h := sha256.New()
	for i := range ops {
		h.Write([]byte(ops[i].path))
		h.Write([]byte{0})
		h.Write(bytes.TrimSpace(ops[i].body))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
