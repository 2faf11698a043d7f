package chrome

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wwb/internal/world"
)

// corruptCases are datasets that violate one invariant each;
// validateDataset, which every snapshot and delta decode runs, must
// reject every one with a descriptive error.
var corruptCases = map[string]*Dataset{
	"malformed cell key": {lists: map[string]RankList{"US|0|0": {}}},
	"empty country":      {lists: map[string]RankList{"|0|0|5": {}}},
	"bad platform":       {lists: map[string]RankList{"US|7|0|5": {}}},
	"bad metric":         {lists: map[string]RankList{"US|0|9|5": {}}},
	"bad month":          {lists: map[string]RankList{"US|0|0|99": {}}},
	"non-numeric key":    {lists: map[string]RankList{"US|x|0|5": {}}},
	"empty domain":       {lists: map[string]RankList{"US|0|0|5": {{Domain: "", Value: 1}}}},
	"negative value":     {lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: -1}}}},
	"NaN value":          {lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: math.NaN()}}}},
	"infinite value":     {lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: math.Inf(1)}}}},
	"ascending values":   {lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: 1}, {Domain: "b.com", Value: 2}}}},
	"bad coverage key":   {coverage: map[string]float64{"US|0|0": 0.5}},
	"coverage above 1":   {coverage: map[string]float64{"US|0|0|5": 1.5}},
	"coverage below 0":   {coverage: map[string]float64{"US|0|0|5": -0.1}},
	"NaN coverage":       {coverage: map[string]float64{"US|0|0|5": math.NaN()}},
	"month out of range": {Months: []world.Month{99}},
	"bad dist key":       {dist: map[string]*DistCurve{"0": {}}},
	"null dist curve":    {dist: map[string]*DistCurve{"0|0": nil}},
	"dist share above 1": {dist: map[string]*DistCurve{"0|0": {Shares: []float64{1.5}}}},
	"NaN dist share":     {dist: map[string]*DistCurve{"0|0": {Shares: []float64{math.NaN()}}}},
	"ascending shares":   {dist: map[string]*DistCurve{"0|0": {Shares: []float64{0.1, 0.2}}}},
}

func TestDecodeRejectsCorruptDatasets(t *testing.T) {
	if err := validateDataset(testDataset); err != nil {
		t.Fatalf("assembled dataset rejected: %v", err)
	}
	for name, ds := range corruptCases {
		if err := validateDataset(ds); err == nil {
			t.Errorf("%s: validateDataset accepted it", name)
		}
	}
}

func TestDecodeRejectsTruncatedFile(t *testing.T) {
	snap := encodeTestSnapshot(t)
	path := writeArtifact(t, t.TempDir(), "half.wwb", snap[:len(snap)/2])
	if _, _, err := DecodeAnyPath(path); err == nil {
		t.Error("DecodeAnyPath accepted a truncated file")
	}
}

// TestDecodeAnyPathRejectsJSONDataset: JSON is no longer a loadable
// dataset format. A JSON file from an older wwbgen must fail with an
// error that tells the user how to replace it.
func TestDecodeAnyPathRejectsJSONDataset(t *testing.T) {
	doc := `{"opts":{"PrivacyThreshold":50,"TopN":10000,"DistMonth":5,"Seed":1,"Months":null},` +
		`"countries":["US"],"months":[5],"lists":{},"dist":{},"coverage":{}}` + "\n"
	path := writeArtifact(t, t.TempDir(), "study.json", []byte(doc))
	_, _, err := DecodeAnyPath(path)
	if err == nil {
		t.Fatal("DecodeAnyPath accepted a JSON dataset")
	}
	for _, want := range []string{"JSON", "regenerate", "wwbgen"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// exerciseDataset walks the full query surface (List, Coverage, Dist,
// Index) of an accepted dataset: whatever a decoder lets through must
// never panic under the queries the server issues. Shared by the fuzz
// targets.
func exerciseDataset(ds *Dataset) {
	for _, c := range append(ds.Countries, "US", "") {
		l := ds.List(c, world.Windows, world.PageLoads, world.Feb2022)
		_ = l.TopN(10)
		_ = l.Rank("a.com")
		_ = ds.Coverage(c, world.Windows, world.PageLoads, world.Feb2022)
	}
	if curve := ds.Dist(world.Windows, world.PageLoads); curve != nil {
		_ = curve.CumShare(10)
		_ = curve.WeightAt(1)
		_ = curve.SitesForShare(0.5)
	}
	ix := ds.Index()
	_ = ix.NumKeys()
	_ = ix.Key(0)
	if id, ok := ix.ID("a"); ok {
		_ = ix.Rank("US", world.Windows, world.PageLoads, world.Feb2022, id)
	}
	for _, c := range ds.Countries {
		_ = ix.MergedIDsTopN(c, world.Windows, world.PageLoads, world.Feb2022, 10)
	}
}

// FuzzDecode feeds arbitrary file contents through DecodeAnyPath, the
// one way a dataset file is loaded: each input must either be rejected
// with an error or yield a dataset whose query surface can be exercised
// without panicking. The input sits next to a valid base snapshot, so
// delta seeds resolve their chain and mutations exercise the binding
// checks; JSON documents are seeded to pin their rejection.
func FuzzDecode(f *testing.F) {
	fx := deltaFixture(f)
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "study.wwb"), fx.baseSnap, 0o644); err != nil {
		f.Fatal(err)
	}
	f.Add(fx.baseSnap)
	f.Add(fx.baseSnap[:len(fx.baseSnap)/3])
	f.Add(fx.delta)
	f.Add(fx.delta[:len(fx.delta)/2])
	f.Add(snapshotMagic[:])
	f.Add(deltaMagic[:])
	f.Add([]byte{})
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lists":{"US|0|0|5":[{"domain":"a.com","value":2},{"domain":"b.com","value":1}]},"countries":["US"]}`))
	f.Add([]byte(`garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := os.CreateTemp(dir, "input-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(in.Name())
		if _, err := in.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		ds, _, err := DecodeAnyPath(in.Name())
		if err != nil {
			return // rejected: that's a valid outcome for arbitrary bytes
		}
		exerciseDataset(ds)
	})
}
