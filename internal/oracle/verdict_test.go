package oracle

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/verdicts.golden from the current checker")

var verdictsPath = filepath.Join("testdata", "verdicts.golden")

// verdicts is testdata/verdicts.golden: the complete error text of every
// failing history the tests of this package build, keyed by a name the
// test picks. Most tests match a substring of the report; the golden pins
// the whole string, so a rewrite of the checker's internals must keep
// every verdict byte for byte. Under -update-verdicts the tests overwrite
// their entries and TestMain writes the result back.
var verdicts = map[string]string{}

// pinVerdict compares err's complete text with the golden entry name.
func pinVerdict(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("verdict %s: history accepted", name)
	}
	if *updateVerdicts {
		verdicts[name] = err.Error()
		return
	}
	want, ok := verdicts[name]
	if !ok {
		t.Fatalf("verdict %s: no entry in %s (regenerate with -update-verdicts)", name, verdictsPath)
	}
	if got := err.Error(); got != want {
		t.Fatalf("verdict %s drifted:\n got: %s\nwant: %s", name, got, want)
	}
}

// PinVerdict lets the external replay tests pin their verdicts too.
var PinVerdict = pinVerdict

func TestMain(m *testing.M) {
	flag.Parse()
	if err := readVerdicts(); err != nil && !*updateVerdicts {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	if *updateVerdicts && code == 0 {
		if err := writeVerdicts(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// The golden holds one "name<TAB>quoted error" line per verdict.
func readVerdicts() error {
	f, err := os.Open(verdictsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, quoted, ok := strings.Cut(sc.Text(), "\t")
		text, err := strconv.Unquote(quoted)
		if !ok || err != nil {
			return fmt.Errorf("%s: malformed line %q", verdictsPath, sc.Text())
		}
		verdicts[name] = text
	}
	return sc.Err()
}

func writeVerdicts() error {
	names := make([]string, 0, len(verdicts))
	for k := range verdicts {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s\t%q\n", k, verdicts[k])
	}
	if err := os.MkdirAll(filepath.Dir(verdictsPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(verdictsPath, []byte(b.String()), 0o644)
}
