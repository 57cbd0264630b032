package tokenize

import (
	"reflect"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("John Charles")
	want := []Token{{"John", 0}, {"Charles", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeCommaAttachment(t *testing.T) {
	got := Tokenize("Holloway, Donald E.")
	want := []Token{{"Holloway,", 0}, {"Donald", 1}, {"E.", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEdgeCases(t *testing.T) {
	if got := Tokenize(""); got != nil {
		t.Errorf("empty = %v", got)
	}
	if got := Tokenize("   "); got != nil {
		t.Errorf("all-delims = %v", got)
	}
	got := Tokenize("  a  b  ")
	want := []Token{{"a", 0}, {"b", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("padded = %v", got)
	}
	// Multiple delimiters in a row.
	got = Tokenize("a\t b")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mixed delims = %v", got)
	}
}

func TestTokenizeDelimsCustom(t *testing.T) {
	got := AppendTokens(nil, "a-b-c", "-")
	want := []Token{{"a", 0}, {"b", 1}, {"c", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("custom delims = %v", got)
	}
}

func TestNGrams(t *testing.T) {
	got := AppendNGrams(nil, "abcd", 2)
	want := []Token{{"ab", 0}, {"bc", 1}, {"cd", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v", got)
	}
	// Shorter than n: whole string.
	got = AppendNGrams(nil, "ab", 3)
	want = []Token{{"ab", 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("short NGrams = %v", got)
	}
	if got := AppendNGrams(nil, "", 3); got != nil {
		t.Errorf("empty NGrams = %v", got)
	}
	// n <= 0 coerces to 1.
	got = AppendNGrams(nil, "ab", 0)
	want = []Token{{"a", 0}, {"b", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("n=0 NGrams = %v", got)
	}
}

func TestNGramsUnicode(t *testing.T) {
	got := AppendNGrams(nil, "héllo", 3)
	if len(got) != 3 {
		t.Fatalf("unicode NGrams = %v", got)
	}
	if got[0].Text != "hél" {
		t.Errorf("first gram = %q", got[0].Text)
	}
}

func TestPrefixes(t *testing.T) {
	got := AppendPrefixes(nil, "8505467600", 3)
	want := []Token{{"8", 0}, {"85", 0}, {"850", 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Prefixes = %v", got)
	}
	got = AppendPrefixes(nil, "ab", 5)
	want = []Token{{"a", 0}, {"ab", 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("capped Prefixes = %v", got)
	}
	if got := AppendPrefixes(nil, "", 3); len(got) != 0 {
		t.Errorf("empty Prefixes = %v", got)
	}
}

func TestIsNumeric(t *testing.T) {
	if !IsNumeric("90001") || IsNumeric("") || IsNumeric("90a") || IsNumeric("-5") {
		t.Error("IsNumeric misbehaving")
	}
}
