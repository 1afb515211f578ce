package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-reports.golden from the current source")

// reportGolden holds one sha256 of Report.String() per -quick report,
// keyed by report id. It pins behaviour across refactors: a change that
// shifts any figure by one event changes a digest. table2 is left out,
// because its LOC column moves with every source edit.
const reportGolden = "testdata/quick-reports.golden"

// checkReportGolden compares rep's digest with the committed golden; with
// -update it records the digest instead.
func checkReportGolden(t *testing.T, rep *Report) {
	t.Helper()
	sum := sha256.Sum256([]byte(rep.String()))
	got := hex.EncodeToString(sum[:])
	digests, err := readReportGolden()
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *update {
		digests[rep.ID] = got
		if err := writeReportGolden(digests); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := digests[rep.ID]
	switch {
	case !ok:
		t.Errorf("%s: no digest in %s (record it with -update)", rep.ID, reportGolden)
	case got != want:
		t.Errorf("%s: report digest %s, golden %s; the report moved:\n%s", rep.ID, got, want, rep)
	}
}

func readReportGolden() (map[string]string, error) {
	digests := map[string]string{}
	f, err := os.Open(reportGolden)
	if err != nil {
		return digests, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", reportGolden, line)
		}
		digests[id] = strings.TrimSpace(sum)
	}
	return digests, sc.Err()
}

func writeReportGolden(digests map[string]string) error {
	ids := make([]string, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("# sha256 of each -quick report (Options{Quick: true, Seed: 1}).\n")
	b.WriteString("# Re-record with: go test ./internal/experiments/ -update\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "%s %s\n", id, digests[id])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(reportGolden, []byte(b.String()), 0o644)
}

// TestFig9Golden pins the fig9 report, which exercises agent Stop, Crash
// and Kill through in-place upgrades and crash fallback.
func TestFig9Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	checkReportGolden(t, runFig9(quick))
}
