package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConvertMineRoundTrip: convert a CSV to a segment store and mine it
// with -store; the report must be byte-identical to mining the CSV
// directly, apart from the wall-clock "mine … + correct …" field.
func TestConvertMineRoundTrip(t *testing.T) {
	csv := writeTempCSV(t)
	store := filepath.Join(t.TempDir(), "d.store")

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"convert", "-in", csv, "-out", store}, &stdout, &stderr); code != 0 {
		t.Fatalf("convert exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "60 records") {
		t.Errorf("convert summary missing record count: %q", stdout.String())
	}
	if _, err := os.Stat(filepath.Join(store, "MANIFEST.json")); err != nil {
		t.Fatalf("store manifest not written: %v", err)
	}

	mine := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 0 {
			t.Fatalf("mine %v exit %d: %s", args, code, errb.String())
		}
		return out.String()
	}
	fromCSV := mine("mine", "-in", csv, "-minsup", "20", "-method", "permutation", "-perms", "50")
	fromStore := mine("mine", "-store", store, "-minsup", "20", "-method", "permutation", "-perms", "50")
	if maskTimings(fromCSV) != maskTimings(fromStore) {
		t.Errorf("store-backed mine diverged from in-memory mine:\n--- csv ---\n%s--- store ---\n%s", fromCSV, fromStore)
	}

	// Re-converting without -force refuses; with -force it succeeds.
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"convert", "-in", csv, "-out", store}, &stdout, &stderr); code != 1 {
		t.Errorf("re-convert without -force exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-force") {
		t.Errorf("refusal should mention -force: %q", stderr.String())
	}
	stderr.Reset()
	if code := realMain([]string{"convert", "-in", csv, "-out", store, "-force", "-q"}, &stdout, &stderr); code != 0 {
		t.Errorf("re-convert with -force exit %d: %s", code, stderr.String())
	}
}

// TestConvertRejectsNumeric: the streaming path cannot discretize, so a
// numeric column must fail with advice and leave no partial store —
// while -discretize converts the same file via the in-memory path, and
// mining that store reports byte-identically to mining the CSV, apart
// from the wall-clock "mine … + correct …" field.
func TestConvertRejectsNumeric(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "num.csv")
	var b strings.Builder
	b.WriteString("age,class\n")
	for i := 0; i < 30; i++ {
		b.WriteString("17,yes\n")
	}
	for i := 0; i < 30; i++ {
		b.WriteString("64,no\n")
	}
	if err := os.WriteFile(csv, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "num.store")

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"convert", "-in", csv, "-out", store}, &stdout, &stderr); code != 1 {
		t.Fatalf("numeric convert exit %d, want 1 (stderr %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-discretize") {
		t.Errorf("numeric refusal should point at -discretize: %q", stderr.String())
	}
	if _, err := os.Stat(filepath.Join(store, "MANIFEST.json")); !os.IsNotExist(err) {
		t.Errorf("partial store left behind: stat err = %v", err)
	}

	stderr.Reset()
	if code := realMain([]string{"convert", "-in", csv, "-out", store, "-discretize", "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-discretize convert exit %d: %s", code, stderr.String())
	}
	fromStore := func() string {
		var out, errb bytes.Buffer
		if code := realMain([]string{"mine", "-store", store, "-minsup", "20"}, &out, &errb); code != 0 {
			t.Fatalf("mine -store exit %d: %s", code, errb.String())
		}
		return out.String()
	}()
	var out, errb bytes.Buffer
	if code := realMain([]string{"mine", "-in", csv, "-minsup", "20"}, &out, &errb); code != 0 {
		t.Fatalf("mine -in exit %d: %s", code, errb.String())
	}
	if maskTimings(out.String()) != maskTimings(fromStore) {
		t.Errorf("discretized store mine diverged from CSV mine:\n--- csv ---\n%s--- store ---\n%s", out.String(), fromStore)
	}
}

// TestMineStoreConflicts: -store excludes -in/-uci.
func TestMineStoreConflicts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"mine", "-store", "x.store", "-uci", "german", "-minsup", "10"}, &stdout, &stderr); code != 1 {
		t.Fatalf("conflicting inputs exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "not both") {
		t.Errorf("conflict message: %q", stderr.String())
	}
}
