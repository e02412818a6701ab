package video

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dtmsvs/internal/stats"
)

func testCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cat, err := NewCatalog(CatalogConfig{NumVideos: n}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCategoryString(t *testing.T) {
	tests := []struct {
		c    Category
		want string
	}{
		{News, "News"}, {Sports, "Sports"}, {Music, "Music"},
		{Comedy, "Comedy"}, {Game, "Game"}, {Category(99), "Category(99)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Fatalf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCategoryIndex(t *testing.T) {
	for i, c := range AllCategories() {
		if c.Index() != i {
			t.Fatalf("%v index %d, want %d", c, c.Index(), i)
		}
	}
	if Category(0).Index() != -1 || Category(6).Index() != -1 {
		t.Fatal("invalid categories must index -1")
	}
	if len(AllCategories()) != NumCategories {
		t.Fatal("AllCategories length mismatch")
	}
}

func TestDefaultLadder(t *testing.T) {
	l := DefaultLadder()
	if len(l) != 5 {
		t.Fatalf("ladder rungs %d", len(l))
	}
	for i := 1; i < len(l); i++ {
		if l[i].BitrateBps <= l[i-1].BitrateBps {
			t.Fatal("ladder must ascend")
		}
		if l[i].Level != i {
			t.Fatalf("level %d at index %d", l[i].Level, i)
		}
	}
}

func TestRepAtMost(t *testing.T) {
	v := &Video{Ladder: DefaultLadder()}
	if r := v.RepAtMost(1e9); r.Level != 4 {
		t.Fatalf("unbounded: level %d", r.Level)
	}
	if r := v.RepAtMost(800e3); r.BitrateBps != 750e3 {
		t.Fatalf("800k cap: %v", r.BitrateBps)
	}
	if r := v.RepAtMost(1); r.Level != 0 {
		t.Fatalf("tiny cap must fall back to lowest, got level %d", r.Level)
	}
	if v.HighestRep().Level != 4 {
		t.Fatal("HighestRep")
	}
}

func TestNewCatalogValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewCatalog(CatalogConfig{NumVideos: 0}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewCatalog(CatalogConfig{NumVideos: 5, MinDurationS: 50, MaxDurationS: 10}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewCatalog(CatalogConfig{NumVideos: 5, CategoryWeights: []float64{1}}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestCatalogStructure(t *testing.T) {
	cat := testCatalog(t, 200)
	if cat.Size() != 200 {
		t.Fatalf("size %d", cat.Size())
	}
	var total int
	for _, c := range AllCategories() {
		total += len(cat.ByCategory(c))
	}
	if total != 200 {
		t.Fatalf("category partition covers %d", total)
	}
	for i, v := range cat.Videos {
		if v.ID != i || v.PopRank != i {
			t.Fatalf("video %d id/rank mismatch: %+v", i, v)
		}
		if v.DurationS < 10 || v.DurationS > 60 {
			t.Fatalf("duration %v outside defaults", v.DurationS)
		}
	}
	// Popularity is Zipf: rank 0 strictly most popular.
	if cat.Popularity(0) <= cat.Popularity(100) {
		t.Fatal("popularity must decrease with rank")
	}
	var sum float64
	for i := 0; i < cat.Size(); i++ {
		sum += cat.Popularity(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("popularity sums to %v", sum)
	}
}

func TestCatalogCategoryWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Heavily News-biased catalog.
	cat, err := NewCatalog(CatalogConfig{
		NumVideos:       1000,
		CategoryWeights: []float64{10, 1, 1, 1, 1},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	news := len(cat.ByCategory(News))
	game := len(cat.ByCategory(Game))
	if news <= 3*game {
		t.Fatalf("news %d not dominant over game %d", news, game)
	}
}

func TestSamplePopularDistribution(t *testing.T) {
	cat := testCatalog(t, 50)
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, 50)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[cat.SamplePopular(rng).ID]++
	}
	if float64(counts[0])/n < cat.Popularity(0)*0.9 {
		t.Fatalf("top video sampled %d/%d, popularity %v", counts[0], n, cat.Popularity(0))
	}
}

func TestSampleFromCategory(t *testing.T) {
	cat := testCatalog(t, 100)
	rng := rand.New(rand.NewSource(14))
	for _, c := range AllCategories() {
		if len(cat.ByCategory(c)) == 0 {
			continue
		}
		v, err := cat.SampleFromCategory(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v.Category != c {
			t.Fatalf("sampled %v from category %v", v.Category, c)
		}
	}
}

// The per-category samplers built once by NewCatalog must draw exactly
// what rebuilding the popularity CDF on every draw drew, consuming the
// same random stream, including when a steep exponent underflows a
// category's weights to zero.
func TestSampleFromCategoryMatchesPerDrawCDF(t *testing.T) {
	for _, exp := range []float64{0.9, 3, 40} {
		cat, err := NewCatalog(CatalogConfig{NumVideos: 400, ZipfExponent: exp}, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		got, want := rand.New(rand.NewSource(21)), rand.New(rand.NewSource(21))
		for i := 0; i < 2000; i++ {
			c := AllCategories()[i%NumCategories]
			v, err := cat.SampleFromCategory(c, got)
			vids := cat.ByCategory(c)
			weights := make([]float64, len(vids))
			for j, w := range vids {
				weights[j] = cat.Popularity(w.ID)
			}
			d, derr := stats.NewCategorical(weights)
			if (err == nil) != (derr == nil) {
				t.Fatalf("exponent %v category %v: sampler error %v, rebuilt error %v", exp, c, err, derr)
			}
			if derr != nil {
				continue
			}
			if w := vids[d.Sample(want)]; v != w {
				t.Fatalf("exponent %v draw %d: video %d, want %d", exp, i, v.ID, w.ID)
			}
		}
	}
}

// RankedByCategory lists each category by descending popularity with
// ties in ID order, and is ByCategory itself when that already holds.
func TestRankedByCategory(t *testing.T) {
	for _, exp := range []float64{0.9, 3, 40} {
		cat, err := NewCatalog(CatalogConfig{NumVideos: 20000, ZipfExponent: exp}, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range AllCategories() {
			ranked, byID := cat.RankedByCategory(c), cat.ByCategory(c)
			if len(ranked) != len(byID) {
				t.Fatalf("category %v: %d ranked, %d videos", c, len(ranked), len(byID))
			}
			sorted := true
			for j := 1; j < len(ranked); j++ {
				p, q := cat.Popularity(ranked[j-1].ID), cat.Popularity(ranked[j].ID)
				if q > p || (q == p && ranked[j].ID < ranked[j-1].ID) {
					t.Fatalf("exponent %v category %v: rank %d out of order", exp, c, j)
				}
				sorted = sorted && ranked[j].ID > ranked[j-1].ID
			}
			if sorted && len(ranked) > 0 && &ranked[0] != &byID[0] {
				t.Fatalf("exponent %v category %v: ID-ordered ranking was copied", exp, c)
			}
		}
	}
	cat := testCatalog(t, 10)
	if cat.RankedByCategory(Category(0)) != nil {
		t.Fatal("unknown category must rank nothing")
	}
}

func TestTopN(t *testing.T) {
	cat := testCatalog(t, 20)
	top := cat.TopN(5)
	if len(top) != 5 {
		t.Fatalf("topn %d", len(top))
	}
	for i, v := range top {
		if v.PopRank != i {
			t.Fatalf("topn[%d] rank %d", i, v.PopRank)
		}
	}
	if len(cat.TopN(100)) != 20 {
		t.Fatal("topn must clamp to catalog size")
	}
}

func TestGenerateDatasetValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cat := testCatalog(t, 10)
	if _, err := GenerateDataset(nil, DatasetConfig{Users: 1, EventsPerUser: 1}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := GenerateDataset(cat, DatasetConfig{Users: 0, EventsPerUser: 1}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := GenerateDataset(cat, DatasetConfig{Users: 1, EventsPerUser: 1, MeanEngagement: 2}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestGenerateDatasetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cat := testCatalog(t, 50)
	recs, err := GenerateDataset(cat, DatasetConfig{Users: 10, EventsPerUser: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("%d records", len(recs))
	}
	var swipes int
	for _, r := range recs {
		if r.WatchS < 0 || r.WatchS > r.DurationS+1e-9 {
			t.Fatalf("watch %v of duration %v", r.WatchS, r.DurationS)
		}
		if r.Swiped != (r.WatchS < r.DurationS) {
			t.Fatalf("swipe flag inconsistent: %+v", r)
		}
		if r.UserID < 0 || r.UserID >= 10 {
			t.Fatalf("user id %d", r.UserID)
		}
		if r.BitrateBps < 400e3 || r.BitrateBps > 2500e3 {
			t.Fatalf("bitrate %v outside ladder", r.BitrateBps)
		}
		if r.Swiped {
			swipes++
		}
	}
	// Short-video users swipe most of the time; the generator should
	// reflect that.
	if float64(swipes)/float64(len(recs)) < 0.5 {
		t.Fatalf("swipe rate %v too low", float64(swipes)/float64(len(recs)))
	}
	// Timestamps per user must be increasing.
	lastTS := map[int]float64{}
	for _, r := range recs {
		if prev, ok := lastTS[r.UserID]; ok && r.TimestampS <= prev {
			t.Fatalf("timestamps not increasing for user %d", r.UserID)
		}
		lastTS[r.UserID] = r.TimestampS
	}
}

func TestCSVRoundTripHeaderAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cat := testCatalog(t, 10)
	recs, err := GenerateDataset(cat, DatasetConfig{Users: 2, EventsPerUser: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("%d csv lines, want 7 (header+6)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "user_id,video_id,category") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cat := testCatalog(t, 10)
	recs, err := GenerateDataset(cat, DatasetConfig{Users: 3, EventsPerUser: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip %d != %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed json must error")
	}
}

// RepAtMost returns the highest rung not exceeding the cap, for any
// cap value.
func TestRepAtMostProperty(t *testing.T) {
	v := &Video{Ladder: DefaultLadder()}
	f := func(raw uint32) bool {
		cap := float64(raw % 4_000_000)
		r := v.RepAtMost(cap)
		// Result never exceeds the cap unless it is the lowest rung.
		if r.Level != 0 && r.BitrateBps > cap {
			return false
		}
		// No higher rung would also fit.
		for _, other := range v.Ladder {
			if other.Level > r.Level && other.BitrateBps <= cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
