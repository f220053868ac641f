package quake_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMetricNamesDocumented is the doc-drift guard for the telemetry
// surface, run both ways: every metric name registered anywhere in the
// tree must appear in the first column of the docs/OBSERVABILITY.md
// metrics table, and every name there must match a registration.
// Registration sites are found by scanning non-test sources for obs.Get*
// calls — literal names, fmt.Sprintf formats, and "prefix." + var
// concats — and doc entries may use <placeholder> wildcards and {a,b}
// brace lists. Adding a metric without documenting it, or deleting one
// and leaving its row, fails this test.
func TestMetricNamesDocumented(t *testing.T) {
	patterns := docMetricPatterns(t)
	names, prefixes := registeredMetricNames(t)

	var missing []string
	for _, n := range names {
		if !anyPatternMatches(patterns, n) {
			missing = append(missing, n)
		}
	}
	for _, p := range prefixes {
		ok := false
		for _, pat := range patterns {
			if strings.HasPrefix(pat.text, p) {
				ok = true
				break
			}
		}
		if !ok {
			missing = append(missing, p+"*")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("metrics registered in code but absent from the docs/OBSERVABILITY.md table:\n  %s",
			strings.Join(missing, "\n  "))
	}

	var stale []string
	for _, pat := range patterns {
		registered := slices.ContainsFunc(names, pat.re.MatchString) ||
			slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(pat.text, p) })
		if !registered {
			stale = append(stale, pat.text)
		}
	}
	if len(stale) > 0 {
		t.Errorf("metrics in the docs/OBSERVABILITY.md table that nothing registers:\n  %s",
			strings.Join(stale, "\n  "))
	}
}

type docPattern struct {
	text string // wildcards as *
	re   *regexp.Regexp
}

// docMetricPatterns extracts every `code span` from the first column of
// the docs/OBSERVABILITY.md metrics table, expanding {a,b,c} alternatives
// and turning <placeholder> into a wildcard.
func docMetricPatterns(t *testing.T) []docPattern {
	t.Helper()
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`]+)`")
	placeholder := regexp.MustCompile(`<[^>]+>`)
	var out []docPattern
	inTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			inTable = false
			continue
		}
		if strings.TrimSpace(cells[1]) == "Metric" {
			inTable = true
		}
		if !inTable {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(cells[1], -1) {
			for _, expanded := range expandBraces(m[1]) {
				text := placeholder.ReplaceAllString(expanded, "*")
				re := "^" + strings.ReplaceAll(regexp.QuoteMeta(text), `\*`, `[^ ]+`) + "$"
				out = append(out, docPattern{text: text, re: regexp.MustCompile(re)})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no metric patterns found in docs/OBSERVABILITY.md table")
	}
	return out
}

// expandBraces turns "a.{x,y}" into ["a.x", "a.y"] (one brace group
// per name is enough for the table's vocabulary).
func expandBraces(s string) []string {
	open := strings.Index(s, "{")
	close := strings.Index(s, "}")
	if open < 0 || close < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:close], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[close+1:])...)
	}
	return out
}

var (
	// obs.GetCounter("name"), obs.GetPEAccum("name", n), a Registry's
	// own r.Gauge("name"), and the Sprintf / "prefix." + var forms that
	// the same call wraps.
	regCall = regexp.MustCompile(`(?:obs\.Get|\.)(?:Counter|Gauge|Histogram|PEAccum)\(\s*(?:fmt\.Sprintf\()?"([^"]+)"`)
	// A "some.prefix." + variable concat assigned or passed as a
	// metric name (e.g. the fault injector's prebuilt counter names).
	regConcat  = regexp.MustCompile(`[=(]\s*"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)*\.)"\s*\+`)
	sprintfFmt = regexp.MustCompile(`%[a-zA-Z]`)
)

// registeredMetricNames scans the non-test Go sources of internal/ and
// cmd/ for metric registrations. It returns concrete names (Sprintf
// verbs replaced by a representative expansion) and open-ended name
// prefixes from concat registrations.
func registeredMetricNames(t *testing.T) (names, prefixes []string) {
	t.Helper()
	seen := map[string]bool{}
	seenPrefix := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			text := string(src)
			if !strings.Contains(text, "obs.") {
				return nil
			}
			for _, m := range regCall.FindAllStringSubmatch(text, -1) {
				name := m[1]
				if strings.HasSuffix(name, ".") {
					seenPrefix[name] = true
					continue
				}
				seen[sprintfFmt.ReplaceAllString(name, "0")] = true
			}
			for _, m := range regConcat.FindAllStringSubmatch(text, -1) {
				seenPrefix[m[1]] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for n := range seen {
		names = append(names, n)
	}
	for p := range seenPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(names)
	sort.Strings(prefixes)
	if len(names) == 0 {
		t.Fatal("scanner found no metric registrations — the regexes have drifted from the code")
	}
	return names, prefixes
}

func anyPatternMatches(patterns []docPattern, name string) bool {
	for _, p := range patterns {
		if p.re.MatchString(name) {
			return true
		}
	}
	return false
}
