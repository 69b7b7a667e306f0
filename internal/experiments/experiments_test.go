package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/embed"
)

// scaled returns name's configuration at another generation scale, relative
// to the paper's full size.
func scaled(name string, scale float64) DatasetConfig {
	cfg := *ConfigFor(name)
	cfg.Scale = scale
	return cfg
}

// tinyConfigs returns heavily scaled-down configs so the harness itself can
// be tested quickly.
func tinyConfigs() []DatasetConfig {
	return []DatasetConfig{scaled("Geo", 0.15), scaled("Music-20", 0.03)}
}

func TestDefaultConfigsCoverAllDatasets(t *testing.T) {
	cfgs := DefaultConfigs()
	if len(cfgs) != 6 {
		t.Fatalf("want 6 dataset configs, got %d", len(cfgs))
	}
	for _, c := range cfgs {
		if c.Scale <= 0 || c.Scale > 1 {
			t.Fatalf("%s scale %v out of range", c.Name, c.Scale)
		}
		if c.M <= 0 || c.Gamma <= 0 || c.Eps <= 0 {
			t.Fatalf("%s has unset hyperparameters: %+v", c.Name, c)
		}
	}
	if ConfigFor("Geo") == nil || ConfigFor("NoSuch") != nil {
		t.Fatal("ConfigFor lookup broken")
	}
}

func TestMeasureReportsTimeAndMemory(t *testing.T) {
	var keep []byte
	elapsed, peak, err := measure(func() error {
		keep = make([]byte, 64<<20)
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	if len(keep) == 0 {
		t.Fatal("allocation vanished")
	}
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 25*time.Millisecond {
		t.Fatalf("elapsed %v too small", elapsed)
	}
	if peak < 32<<20 {
		t.Fatalf("peak %d should have seen the 64MB allocation", peak)
	}
}

func TestRunTable3(t *testing.T) {
	var buf bytes.Buffer
	stats, err := RunTable3(&buf, tinyConfigs())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats rows = %d", len(stats))
	}
	if stats[0].Name != "Geo" || stats[0].Sources != 4 || stats[0].Attrs != 3 {
		t.Fatalf("Geo stats wrong: %+v", stats[0])
	}
	if stats[1].Sources != 5 || stats[1].Attrs != 8 {
		t.Fatalf("Music stats wrong: %+v", stats[1])
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Fatal("output must contain the table title")
	}
}

func TestRunTable7ReproducesSelections(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunTable7(&buf, tinyConfigs())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table VII: Geo selects only name; Music selects title,
	// artist, album.
	if got := strings.Join(rows[0].Selected, ","); got != "name" {
		t.Fatalf("Geo selected %q, want name", got)
	}
	if got := strings.Join(rows[1].Selected, ","); got != "title,artist,album" {
		t.Fatalf("Music selected %q, want title,artist,album", got)
	}
}

func TestRunDatasetMultiEMOnly(t *testing.T) {
	cfg := tinyConfigs()[0]
	res, err := RunDataset(cfg, []string{"MultiEM"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Skipped != "" {
		t.Fatalf("unexpected results: %+v", res)
	}
	if res[0].Report.Tuple.F1 < 0.5 {
		t.Fatalf("MultiEM F1 %.3f too low on tiny Geo", res[0].Report.Tuple.F1)
	}
	if res[0].Runtime <= 0 || res[0].PeakMem == 0 {
		t.Fatalf("runtime/memory not measured: %+v", res[0])
	}
	if len(res[0].SelectedAttrs) == 0 {
		t.Fatal("MultiEM row must carry selected attributes")
	}
}

func TestRunDatasetGatesScaleWithFullSize(t *testing.T) {
	// Music-2000 at tiny scale must still be gated for PLM baselines,
	// because feasibility is judged at full size.
	cfg := scaled("Music-2000", 0.002)
	res, err := RunDataset(cfg, []string{"Ditto (pw)", "MSCD-HAC", "AutoFJ (c)", "ALMSER-GB"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Skipped == "" {
			t.Fatalf("%s must be infeasible on Music-2000, got %+v", r.Method, r)
		}
	}
	wantMark := map[string]string{
		"Ditto (pw)": `\`, "MSCD-HAC": `\`, "AutoFJ (c)": "-", "ALMSER-GB": `\`,
	}
	for _, r := range res {
		if r.Skipped != wantMark[r.Method] {
			t.Fatalf("%s skip marker %q, want %q", r.Method, r.Skipped, wantMark[r.Method])
		}
	}
}

// slowEncoder makes the baselines' context build take at least delay.
type slowEncoder struct {
	embed.Encoder
	delay time.Duration
}

func (e slowEncoder) EncodeBatch(texts []string) [][]float32 {
	time.Sleep(e.delay)
	return e.Encoder.EncodeBatch(texts)
}

// Every baseline row's runtime includes the shared embedding context's build
// time, the row that builds it as much as the rows that reuse it. The build
// is made slower than the baseline itself, so a row that leaves it out shows.
func TestBaselineRowsIncludeContextTime(t *testing.T) {
	cfg := tinyConfigs()[0]
	d, err := datagen.GenerateByName(cfg.Name, cfg.Scale, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedContext{enc: slowEncoder{embed.NewHashEncoder(), 200 * time.Millisecond}}
	for row := 0; row < 2; row++ {
		r, err := runMethod("AutoFJ (pw)", cfg, d, &shared)
		if err != nil {
			t.Fatal(err)
		}
		if r.Runtime < shared.took {
			t.Fatalf("row %d: runtime %v leaves out the shared context's %v", row, r.Runtime, shared.took)
		}
	}
}

func TestRunDatasetUnknownMethod(t *testing.T) {
	cfg := tinyConfigs()[0]
	if _, err := RunDataset(cfg, []string{"NoSuchMethod"}); err == nil {
		t.Fatal("unknown method must error")
	}
}

// The headline comparison at small scale: MultiEM must beat every feasible
// baseline on tuple F1 on Geo — the paper's central effectiveness claim.
func TestTable4ShapeMultiEMWins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method comparison is slow")
	}
	cfg := tinyConfigs()[0]
	methods := []string{"Ditto (c)", "AutoFJ (pw)", "MSCD-HAC", "MultiEM"}
	res, err := RunDataset(cfg, methods)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MethodResult{}
	for _, r := range res {
		byName[r.Method] = r
	}
	me := byName["MultiEM"].Report.Tuple.F1
	for _, m := range methods[:3] {
		r := byName[m]
		if r.Skipped != "" {
			continue
		}
		if r.Report.Tuple.F1 >= me {
			t.Errorf("%s F1 %.3f >= MultiEM %.3f — paper shape violated",
				m, r.Report.Tuple.F1, me)
		}
	}
}

func TestRunTables456Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	all, err := RunTables456(&buf, tinyConfigs()[:1], []string{"MultiEM", "MultiEM (parallel)"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table IV", "Table V", "Table VI", "MultiEM (parallel)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if len(all["Geo"]) != 2 {
		t.Fatalf("results for Geo = %d", len(all["Geo"]))
	}
}

func TestRunFigure5(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunFigure5(&buf, tinyConfigs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.R <= 0 || r.M <= 0 || r.Mp <= 0 {
		t.Fatalf("phase timings missing: %+v", r)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("missing title")
	}
}

func TestRunFigure6MSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	var buf bytes.Buffer
	pts, err := RunFigure6(&buf, tinyConfigs()[:1], "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("want 4 sweep points, got %d", len(pts))
	}
	// F1 must vary with m (the paper: MultiEM is sensitive to m).
	varies := false
	for _, p := range pts[1:] {
		if p.F1 != pts[0].F1 {
			varies = true
		}
	}
	if !varies {
		t.Fatal("F1 must be sensitive to m")
	}
	// The loosest m must beat the tightest on recall-driven F1 here.
	if pts[3].F1 <= pts[0].F1 {
		t.Fatalf("m=0.5 F1 %.3f should exceed m=0.05 F1 %.3f on Geo", pts[3].F1, pts[0].F1)
	}
}

func TestSweepsInPaperOrder(t *testing.T) {
	var got []string
	for _, s := range Sweeps {
		got = append(got, s.Figure)
	}
	if strings.Join(got, " ") != "6a 6b 6c 6e" {
		t.Fatalf("sweep order %v, want 6a 6b 6c 6e", got)
	}
}

func TestRunFigure6UnknownSweep(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunFigure6(&buf, tinyConfigs()[:1], "nope"); err == nil {
		t.Fatal("unknown sweep must error")
	}
}

func TestRenderHelpers(t *testing.T) {
	if fmtDuration(90*time.Second) != "1.5m" {
		t.Fatalf("fmtDuration = %q", fmtDuration(90*time.Second))
	}
	if fmtDuration(2*time.Hour) != "2.0h" {
		t.Fatalf("fmtDuration = %q", fmtDuration(2*time.Hour))
	}
	if fmtDuration(500*time.Millisecond) != "0.5s" {
		t.Fatalf("fmtDuration = %q", fmtDuration(500*time.Millisecond))
	}
	if fmtMem(2<<30) != "2.0G" {
		t.Fatalf("fmtMem = %q", fmtMem(2<<30))
	}
	if fmtMem(10<<20) != "10M" {
		t.Fatalf("fmtMem = %q", fmtMem(10<<20))
	}
	if pct(0.905) != "90.5" {
		t.Fatalf("pct = %q", pct(0.905))
	}
}
