package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	vas "repro"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/tilecache"
	"repro/internal/viztime"
)

// twin is the layered twin: the serving stack assembled by the benchmark
// from the same public functions vas.Catalog and internal/server compose,
// with a span around each call into a layer. It answers the same ops as
// the HTTP server, on one goroutine, without HTTP; what it cannot see
// (routing, parameter parsing, the socket) is server.http_self_us.
type twin struct {
	st      *store.Store
	planner *query.Planner
	cache   *tilecache.Cache
	rec     *recorder // nil = untraced

	// What internal/server keeps per table: the invalidation epoch in the
	// tile cache key and the cached extent tile addresses resolve against.
	epoch     uint64
	bounds    geom.Rect
	hasBounds bool

	// What vas.Catalog keeps for durability; dir == "" means not bound.
	dir       string
	snapEpoch uint64

	buf bytes.Buffer // JSON replies are encoded into it, as into a socket

	// Left by query and nearest for reTime: the span of the planner call
	// and the table it answered from.
	lastPlan   int
	lastServed string
}

var budgetDur = mustDuration(budget)

func mustDuration(s string) time.Duration {
	d, err := time.ParseDuration(s)
	if err != nil {
		panic(err)
	}
	return d
}

func newTwin(st *store.Store, rec *recorder) *twin {
	return &twin{
		st:      st,
		planner: query.NewPlanner(st, viztime.Tableau()),
		cache:   tilecache.New(0),
		rec:     rec,
	}
}

// buildTwin is the decomposed build: what Catalog.LoadTable, BuildSamples
// and SaveSnapshot do, one span per layer call. It leaves a snapshot in dir
// that vas.Catalog.LoadSnapshot accepts, and returns the generated data.
func buildTwin(cfg config, dir string, rec *recorder) ([]geom.Point, error) {
	sp := rec.start("dataset.generate")
	pts := dataset.GeolifeLike(dataset.GeolifeOptions{N: cfg.n, Seed: datasetSeed}).Points
	rec.end(sp)

	st := store.New()
	t, err := st.CreateTable(tableName, "x", "y")
	if err != nil {
		return nil, err
	}
	xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	sp = rec.start("store.bulk_load")
	err = t.BulkLoad(xs, ys)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("store.index_build")
	err = t.IndexOn("x", "y")
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	for _, k := range cfg.sizes {
		sp = rec.start(fmt.Sprintf("vas.interchange_k%d", k))
		s, err := vas.Build(pts, vas.Options{K: k, Passes: 1})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if k == cfg.sizes[len(cfg.sizes)-1] {
			rec.count("vas.objective", int(s.Objective))
		}
		sp = rec.start("vas.density_pass")
		ws, err := s.DensityEmbed(pts)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.start("query.load_sample")
		err = query.LoadSample(st, sampleTable(k), store.SampleMeta{Source: tableName, Method: "vas", XCol: "x", YCol: "y"}, s.Points, ws.Counts)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	cat := &snapshot.Catalog{Epoch: 1}
	sp = rec.start("snapshot.save")
	cat.Tables, cat.Samples = st.SnapshotCatalog()
	err = snapshot.Save(filepath.Join(dir, vas.SnapshotFile), cat)
	rec.end(sp)
	return pts, err
}

func sampleTable(k int) string { return fmt.Sprintf("%s_vas_%d", tableName, k) }

// loadTwin restores a twin from the snapshot in dir the way
// Catalog.LoadSnapshot does — base file, then tail replay — and binds it
// to dir when bind is set, so its appends and deletes are logged there.
func loadTwin(dir string, bind bool, rec *recorder) (*twin, error) {
	sp := rec.start("snapshot.load")
	cat, err := snapshot.Load(filepath.Join(dir, vas.SnapshotFile))
	if err != nil {
		rec.end(sp)
		return nil, err
	}
	tables := make([]*store.Table, 0, len(cat.Tables))
	byName := make(map[string]*store.Table, len(cat.Tables))
	for _, ts := range cat.Tables {
		t, err := store.TableFromSnapshot(ts)
		if err != nil {
			rec.end(sp)
			return nil, err
		}
		t.SetAutoCompact(vas.DefaultCompactFraction)
		tables = append(tables, t)
		byName[t.Name()] = t
	}
	st := store.New()
	err = st.PublishCatalog(tables, cat.Samples)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.start("snapshot.tail_replay")
	defer rec.end(sp)
	tail, _, err := snapshot.LoadTail(filepath.Join(dir, vas.TailFile))
	if err != nil {
		return nil, err
	}
	for _, r := range tail {
		t := byName[r.Table]
		if t == nil {
			return nil, fmt.Errorf("tail record for unknown table %q", r.Table)
		}
		if r.Delete {
			preds := make([]store.Pred, len(r.Preds))
			for i, p := range r.Preds {
				preds[i] = store.Pred{Column: p.Col, Min: p.Min, Max: p.Max}
			}
			_, err = t.DeleteWhere(preds)
		} else {
			err = t.AppendRows(r.Cols...)
			rec.count("snapshot.tail_rows", len(r.Cols[0]))
		}
		if err != nil {
			return nil, err
		}
	}
	tw := newTwin(st, rec)
	tw.snapEpoch = cat.Epoch
	if bind {
		tw.dir = dir
	}
	return tw, nil
}

// do answers one op. For tiles it returns the PNG.
func (tw *twin) do(o *op) ([]byte, error) {
	switch o.kind {
	case kTile, kTileExact:
		return tw.tile(o)
	case kNearest:
		return nil, tw.nearest(o)
	case kAppend:
		return nil, tw.append(o)
	case kDelete:
		return nil, tw.delete(o)
	default:
		return nil, tw.query(o)
	}
}

// tableBounds is server.tableBounds: the extent, recomputed after every
// invalidation.
func (tw *twin) tableBounds() (geom.Rect, error) {
	if tw.hasBounds {
		return tw.bounds, nil
	}
	t, err := tw.st.Table(tableName)
	if err != nil {
		return geom.Rect{}, err
	}
	sp := tw.rec.start("store.bounds")
	b, err := t.Bounds("x", "y")
	tw.rec.end(sp)
	if err != nil {
		return geom.Rect{}, err
	}
	tw.bounds, tw.hasBounds = b, true
	return b, nil
}

func (tw *twin) invalidate() {
	sp := tw.rec.start("tilecache.invalidate")
	tw.epoch++
	tw.hasBounds = false
	tw.cache.InvalidateTable(tableName)
	tw.rec.end(sp)
}

// tile is server.handleTile: choose the sample, look the tile up, render
// on a miss.
func (tw *twin) tile(o *op) ([]byte, error) {
	exact := o.kind == kTileExact
	bounds, err := tw.tableBounds()
	if err != nil {
		return nil, err
	}
	rect, err := geom.TileRect(bounds, o.z, o.x, o.y)
	if err != nil {
		return nil, err
	}
	var meta store.SampleMeta
	sample := "__exact__"
	if !exact {
		sp := tw.rec.start("query.choose")
		meta, err = tw.planner.Choose(query.Request{Table: tableName, XCol: "x", YCol: "y", Budget: budgetDur})
		tw.rec.end(sp)
		if err != nil {
			return nil, err
		}
		sample = meta.Table
	}
	key := tilecache.Key{Table: tableName, Sample: sample, Epoch: tw.epoch, Z: o.z, X: o.x, Y: o.y, Size: tileSize}
	sp := tw.rec.start("tilecache.miss")
	png, _, hit, err := tw.cache.GetOrRender(key, func() ([]byte, any, error) {
		b, err := tw.render(meta, rect, exact)
		return b, nil, err
	})
	tw.rec.end(sp)
	if hit {
		tw.rec.rename(sp, "tilecache.hit")
	}
	return png, err
}

// render is server.renderTile: scan the tile's rectangle, gather, plot,
// encode.
func (tw *twin) render(meta store.SampleMeta, rect geom.Rect, exact bool) ([]byte, error) {
	name, xCol, yCol := meta.Table, meta.XCol, meta.YCol
	if exact {
		name, xCol, yCol = tableName, "x", "y"
	}
	t, err := tw.st.Table(name)
	if err != nil {
		return nil, err
	}
	sp := tw.rec.start("store.scan_rect")
	rows, stats, err := t.ScanRectWhereCtx(context.Background(), xCol, yCol, rect, nil)
	tw.rec.end(sp)
	if err != nil {
		return nil, err
	}
	tw.countScan(stats, rows.Len())
	sp = tw.rec.start("store.points_gather")
	pts, err := t.Points(xCol, yCol, rows)
	tw.rec.end(sp)
	if err != nil {
		return nil, err
	}
	var ras *render.Raster
	if meta.HasDensity && !exact {
		sp = tw.rec.start("store.gather_density")
		vals, err := t.Gather("density", rows)
		tw.rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tw.rec.start("render.plot")
		weights := make([]int64, len(vals))
		for i, v := range vals {
			weights[i] = int64(v)
		}
		ras = render.NewRaster(rect, tileSize, tileSize)
		_, err = ras.PlotWeighted(pts, weights, 0)
		tw.rec.end(sp)
		if err != nil {
			return nil, err
		}
	} else {
		sp = tw.rec.start("render.plot")
		ras = render.NewRaster(rect, tileSize, tileSize)
		ras.Plot(pts)
		tw.rec.end(sp)
	}
	sp = tw.rec.start("render.png_encode")
	var buf bytes.Buffer
	err = ras.WritePNG(&buf)
	tw.rec.end(sp)
	tw.rec.count("render.tiles", 1)
	tw.rec.count("render.png_bytes", buf.Len())
	return buf.Bytes(), err
}

func (tw *twin) countScan(s store.ScanStats, results int) {
	tw.rec.count("store.rows_examined", s.RowsExamined)
	tw.rec.count("store.rows_returned", results)
	tw.rec.count("store.cells_touched", s.CellsTouched)
	tw.rec.count("store.cells_pruned", s.CellsPruned)
}

// encode writes a reply the way server.writeJSON does.
func (tw *twin) encode(v any) error {
	sp := tw.rec.start("server.encode")
	tw.buf.Reset()
	err := json.NewEncoder(&tw.buf).Encode(v)
	tw.rec.end(sp)
	return err
}

// query is server.handleQuery after parameter parsing: plan, then encode.
// Planner.PlanCtx contains the store's scan and gather; the traced twin
// times those again afterwards, with the arguments PlanCtx used.
func (tw *twin) query(o *op) error {
	req := query.Request{Table: tableName, XCol: "x", YCol: "y", Filters: o.filter, Exact: o.kind != kQuerySampled}
	if o.kind == kQueryMultirect {
		req.Rects = o.rects
	} else {
		req.Viewport = o.rects[0]
	}
	if !req.Exact {
		req.Budget = budgetDur
	}
	plan := tw.rec.start("query.plan_exact")
	if !req.Exact {
		tw.rec.rename(plan, "query.plan_sampled")
	}
	resp, err := tw.planner.PlanCtx(context.Background(), req)
	tw.rec.end(plan)
	if err != nil {
		return err
	}
	out := server.QueryResponse{
		Table: tableName, Points: make([][2]float64, len(resp.Points)), Counts: resp.Values,
		Sample: resp.Sample.Table, SampleSize: resp.Sample.Size, Exact: resp.ExactScan,
		ServedRows:      resp.ServedRows,
		PredictedMillis: float64(resp.PredictedTime) / float64(time.Millisecond),
		PlanMillis:      float64(resp.PlanTime) / float64(time.Millisecond),
		Scan:            server.ScanStatsJSON(resp.Scan),
	}
	for i, p := range resp.Points {
		out.Points[i] = [2]float64{p.X, p.Y}
	}
	if err := tw.encode(out); err != nil {
		return err
	}
	tw.countScan(resp.Scan, len(resp.Points))
	tw.lastPlan, tw.lastServed = plan, tableName
	if !req.Exact {
		tw.lastServed = resp.Sample.Table
	}
	return nil
}

// reTime runs, after a traced query or nearest op has ended, the store
// calls Planner made inside it, with identical arguments, each under a
// shadow span whose parent is the planner's span.
func (tw *twin) reTime(o *op) error {
	if o.kind == kTile || o.kind == kTileExact || o.kind == kAppend || o.kind == kDelete {
		return nil // the twin called the store itself; nothing is hidden
	}
	t, err := tw.st.Table(tw.lastServed)
	if err != nil {
		return err
	}
	ctx, plan := context.Background(), tw.lastPlan
	if o.kind == kNearest {
		sp := tw.rec.shadow("store.nearest", plan)
		_, _, err = t.NearestCtx(ctx, "x", "y", o.pt.X, o.pt.Y, o.k, nil)
		tw.rec.end(sp)
		return err
	}
	var rows store.RowSet
	switch o.kind {
	case kQueryMultirect:
		sp := tw.rec.shadow("store.scan_rects", plan)
		rows, _, err = t.ScanRectsCtx(ctx, "x", "y", o.rects, nil)
		tw.rec.end(sp)
	case kQueryFiltered:
		sp := tw.rec.shadow("store.scan_filtered", plan)
		rows, _, err = t.ScanRectWhereCtx(ctx, "x", "y", o.rects[0], o.filter)
		tw.rec.end(sp)
	default:
		sp := tw.rec.shadow("store.scan_rect", plan)
		rows, _, err = t.ScanRectWhereCtx(ctx, "x", "y", o.rects[0], nil)
		tw.rec.end(sp)
	}
	if err != nil {
		return err
	}
	sp := tw.rec.shadow("store.points_gather", plan)
	_, err = t.Points("x", "y", rows)
	tw.rec.end(sp)
	return err
}

// nearest is server.handleNearest after parameter parsing.
func (tw *twin) nearest(o *op) error {
	plan := tw.rec.start("query.nearest")
	resp, err := tw.planner.NearestCtx(context.Background(), query.NearestRequest{
		Table: tableName, XCol: "x", YCol: "y", X: o.pt.X, Y: o.pt.Y, K: o.k,
	})
	tw.rec.end(plan)
	if err != nil {
		return err
	}
	out := server.NearestResponse{
		Table: tableName, K: o.k, Neighbors: make([]server.NeighborJSON, len(resp.Neighbors)),
		ServedRows: resp.ServedRows, PlanMillis: float64(resp.PlanTime) / float64(time.Millisecond),
		Scan: server.ScanStatsJSON(resp.Scan),
	}
	for i, n := range resp.Neighbors {
		out.Neighbors[i] = server.NeighborJSON{Row: n.Row, X: n.X, Y: n.Y, Dist: n.Dist}
	}
	tw.lastPlan, tw.lastServed = plan, tableName
	return tw.encode(out)
}

// append is server.handleAppend plus Catalog.appendCols: decode the batch,
// append it to the table, log it to the tail (fsync included), invalidate.
func (tw *twin) append(o *op) error {
	sp := tw.rec.start("server.decode")
	var req server.AppendRequest
	err := json.Unmarshal(o.body, &req)
	xs, ys := make([]float64, len(req.Points)), make([]float64, len(req.Points))
	for i, p := range req.Points {
		xs[i], ys[i] = p[0], p[1]
	}
	tw.rec.end(sp)
	if err != nil {
		return err
	}
	t, err := tw.st.Table(tableName)
	if err != nil {
		return err
	}
	sp = tw.rec.start("store.append_rows")
	err = t.AppendRows(xs, ys)
	tw.rec.end(sp)
	if err != nil {
		return err
	}
	if tw.dir != "" {
		sp = tw.rec.start("snapshot.tail_append")
		err = snapshot.AppendTail(filepath.Join(tw.dir, vas.TailFile), tableName, [][]float64{xs, ys}, tw.snapEpoch)
		tw.rec.end(sp)
		if err != nil {
			return err
		}
	}
	tw.invalidate()
	return tw.encode(server.AppendResponse{Appended: len(xs), Rows: t.LiveRows()})
}

// delete is server.handleDelete plus Catalog.deleteWhere.
func (tw *twin) delete(o *op) error {
	r := o.rects[0]
	preds := []store.Pred{{Column: "x", Min: r.MinX, Max: r.MaxX}, {Column: "y", Min: r.MinY, Max: r.MaxY}}
	t, err := tw.st.Table(tableName)
	if err != nil {
		return err
	}
	sp := tw.rec.start("store.delete")
	n, err := t.DeleteWhere(preds)
	tw.rec.end(sp)
	if err != nil {
		return err
	}
	if tw.dir != "" && n > 0 {
		tp := []snapshot.TailPred{{Col: "x", Min: r.MinX, Max: r.MaxX}, {Col: "y", Min: r.MinY, Max: r.MaxY}}
		sp = tw.rec.start("snapshot.tail_append")
		err = snapshot.AppendTailDelete(filepath.Join(tw.dir, vas.TailFile), tableName, tp, tw.snapEpoch)
		tw.rec.end(sp)
		if err != nil {
			return err
		}
	}
	if n > 0 {
		tw.invalidate()
	}
	return tw.encode(server.DeleteResponse{Deleted: n, Rows: t.LiveRows()})
}

// replay answers ops in order on this goroutine and returns the summed
// time of the ops themselves (shadow re-timing excluded).
func (tw *twin) replay(ctx context.Context, ops []op) (time.Duration, error) {
	var total time.Duration
	for i := range ops {
		if err := context.Cause(ctx); err != nil {
			return total, err
		}
		tw.rec.setOp(i)
		start := time.Now()
		root := tw.rec.start("op." + kindNames[ops[i].kind])
		_, err := tw.do(&ops[i])
		tw.rec.end(root)
		total += time.Since(start)
		if err == nil && tw.rec != nil {
			err = tw.reTime(&ops[i])
		}
		if err != nil {
			return total, fmt.Errorf("twin op %d (%s): %w", i, ops[i].path, err)
		}
	}
	tw.rec.setOp(-1)
	return total, nil
}

// tailBytes returns the tail log's size on disk.
func tailBytes(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, vas.TailFile))
	if err != nil {
		return 0
	}
	return fi.Size()
}
