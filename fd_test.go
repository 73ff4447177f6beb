package fd_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	fd "repro"
	"repro/internal/workload"
)

// buildTourist constructs Table 1 through the public API only.
func buildTourist(t *testing.T) *fd.Database {
	t.Helper()
	climates := fd.MustRelation("Climates", fd.MustSchema("Country", "Climate"))
	climates.MustAppend("c1", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "Climate": fd.V("diverse")})
	climates.MustAppend("c2", map[fd.Attribute]fd.Value{"Country": fd.V("UK"), "Climate": fd.V("temperate")})
	climates.MustAppend("c3", map[fd.Attribute]fd.Value{"Country": fd.V("Bahamas"), "Climate": fd.V("tropical")})
	acc := fd.MustRelation("Accommodations", fd.MustSchema("Country", "City", "Hotel", "Stars"))
	acc.MustAppend("a1", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "City": fd.V("Toronto"), "Hotel": fd.V("Plaza"), "Stars": fd.V("4")})
	acc.MustAppend("a2", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "City": fd.V("London"), "Hotel": fd.V("Ramada"), "Stars": fd.V("3")})
	acc.MustAppend("a3", map[fd.Attribute]fd.Value{"Country": fd.V("Bahamas"), "City": fd.V("Nassau"), "Hotel": fd.V("Hilton")})
	sites := fd.MustRelation("Sites", fd.MustSchema("Country", "City", "Site"))
	sites.MustAppend("s1", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "City": fd.V("London"), "Site": fd.V("Air Show")})
	sites.MustAppend("s2", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "Site": fd.V("Mount Logan")})
	sites.MustAppend("s3", map[fd.Attribute]fd.Value{"Country": fd.V("UK"), "City": fd.V("London"), "Site": fd.V("Buckingham")})
	sites.MustAppend("s4", map[fd.Attribute]fd.Value{"Country": fd.V("UK"), "City": fd.V("London"), "Site": fd.V("Hyde Park")})
	db, err := fd.NewDatabase(climates, acc, sites)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := buildTourist(t)
	results, stats, err := drainSets(db, exactQuery(fd.QueryOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(results))
	for i, s := range results {
		got[i] = fd.Format(db, s)
	}
	sort.Strings(got)
	want := workload.Table2()
	sort.Strings(want)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("FD = %v, want %v", got, want)
	}
	if stats.Emitted != 6 {
		t.Errorf("stats.Emitted = %d", stats.Emitted)
	}
}

func TestPublicAPIPadding(t *testing.T) {
	db := buildTourist(t)
	results, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	attrs, rows := fd.PadAll(db, results)
	if len(attrs) != 6 {
		t.Fatalf("attribute universe = %v", attrs)
	}
	if len(rows) != len(results) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Single-set padding agrees with PadAll.
	p := fd.Pad(db, results[0])
	if p.Key() != rows[0].Key() {
		t.Error("Pad and PadAll disagree")
	}
}

func TestPublicAPITopKAndThreshold(t *testing.T) {
	db := buildTourist(t)
	// Assign importances through the public Tuple type.
	imp := map[string]float64{"c1": 1, "c2": 2, "c3": 3, "a1": 4, "a2": 3, "a3": 1}
	for r := 0; r < db.NumRelations(); r++ {
		rel := db.Relation(r)
		for i := 0; i < rel.Len(); i++ {
			if v, ok := imp[rel.Tuple(i).Label]; ok {
				rel.MutateTuple(i, func(t *fd.Tuple) { t.Imp = v })
			}
		}
	}
	top, _, err := drain(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || fd.Format(db, top[0].Set) != "{c1, a1}" {
		t.Errorf("top-2 = %v", top)
	}
	thr, _, err := drain(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(thr) != 1 {
		t.Errorf("threshold 4 returned %d results", len(thr))
	}
}

func TestPublicAPIApprox(t *testing.T) {
	db, _ := workload.TouristApprox()
	results, _, err := drainSets(db, fd.Query{Mode: fd.ModeApprox, Tau: 0.4, Sim: "levenshtein",
		Options: fd.QueryOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("approximate FD empty")
	}
	// The misspelled c1 re-joins a2/s1 under edit similarity.
	found := false
	for _, s := range results {
		if fd.Format(db, s) == "{c1, a2, s1}" {
			found = true
		}
	}
	if !found {
		var names []string
		for _, s := range results {
			names = append(names, fd.Format(db, s))
		}
		t.Errorf("expected {c1, a2, s1} among approximate results: %v", names)
	}
}

func TestPublicAPIStreamEarlyStop(t *testing.T) {
	db := buildTourist(t)
	got, _, err := drain(db, fd.Query{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("streamed %d", len(got))
	}
	if _, _, err := drain(db, fd.Query{Mode: fd.ModeApprox, Tau: 0.5, Sim: "exact", K: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	db := buildTourist(t)
	var buf bytes.Buffer
	if err := fd.WriteCSV(db.Relation(0), &buf); err != nil {
		t.Fatal(err)
	}
	back, err := fd.ReadCSV("Climates", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Errorf("round trip lost tuples: %d", back.Len())
	}
}
