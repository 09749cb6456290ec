package splitter

import (
	"strings"
	"testing"
	"testing/quick"
)

// splitCases is the splitter's behaviour table, also the seed corpus
// of FuzzSplitMatchesReference.
var splitCases = []struct {
	name, in string
	want     []string
}{
	{
		"two sentences",
		"The working hours are 9 AM to 5 PM. The store is open daily.",
		[]string{"The working hours are 9 AM to 5 PM.", "The store is open daily."},
	},
	{
		"paper partial response",
		"The working hours are 9 AM to 5 PM, and the store is open from Monday to Friday.",
		[]string{"The working hours are 9 AM to 5 PM, and the store is open from Monday to Friday."},
	},
	{
		"question and exclamation",
		"Is it open? Yes! Come in.",
		[]string{"Is it open?", "Yes!", "Come in."},
	},
	{
		"abbreviation",
		"Dr. Smith approved the leave. It starts Monday.",
		[]string{"Dr. Smith approved the leave.", "It starts Monday."},
	},
	{
		"decimal",
		"Overtime pays 1.5 times the rate. Approval is needed.",
		[]string{"Overtime pays 1.5 times the rate.", "Approval is needed."},
	},
	{
		"initials",
		"J. K. Rowling visited. We were thrilled.",
		[]string{"J. K. Rowling visited.", "We were thrilled."},
	},
	{
		"am pm mid sentence",
		"We open at 9 a.m. and close at 5 p.m. sharp.",
		[]string{"We open at 9 a.m. and close at 5 p.m. sharp."},
	},
	{
		"am pm at boundary",
		"We close at 5 p.m. The alarm is armed afterwards.",
		[]string{"We close at 5 p.m.", "The alarm is armed afterwards."},
	},
	{
		"ellipsis",
		"Well... maybe. Ask HR.",
		[]string{"Well... maybe.", "Ask HR."},
	},
	{
		"closing quote",
		`He said "no." Then he left.`,
		[]string{`He said "no."`, "Then he left."},
	},
	{"empty", "", nil},
	{"whitespace only", "  \n\t ", nil},
	{"no terminator", "trailing clause without a period", []string{"trailing clause without a period"}},
}

func TestSplitBasic(t *testing.T) {
	for _, tc := range splitCases {
		t.Run(tc.name, func(t *testing.T) {
			got := Split(tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("Split(%q) = %#v (%d), want %#v (%d)", tc.in, got, len(got), tc.want, len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("sentence %d = %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestSplitNewlines(t *testing.T) {
	in := "First fact.\nSecond fact follows\nstill the same sentence.\n\nNew paragraph."
	got := Split(in)
	if len(got) != 3 {
		t.Fatalf("got %d sentences: %#v", len(got), got)
	}
	if got[1] != "Second fact follows still the same sentence." &&
		got[1] != "Second fact follows\nstill the same sentence." {
		// The soft-wrap join keeps the words; exact whitespace shape is
		// not part of the contract.
		if !strings.Contains(strings.ReplaceAll(got[1], "\n", " "), "still the same sentence") {
			t.Errorf("soft wrap broken: %q", got[1])
		}
	}
}

func TestSplitBullets(t *testing.T) {
	in := "Policy highlights:\n- 14 days of leave.\n- 3 sets of uniform."
	got := Split(in)
	if len(got) != 3 {
		t.Fatalf("bullet split = %#v, want 3 parts", got)
	}
}

// TestSplitPreservesContent is the splitter's core contract: no words
// are created or destroyed.
func TestSplitPreservesContent(t *testing.T) {
	canon := func(s string) string {
		return strings.Join(strings.Fields(s), " ")
	}
	inputs := []string{
		"The store operates from 9 AM to 5 PM, from Sunday to Saturday. There should be at least three shopkeepers to run a shop.",
		"A. B. said: \"Hello there!\" Then... silence? Yes. 2.5 times!",
		"One\n\nTwo\nthree four. Five.",
	}
	for _, in := range inputs {
		got := Split(in)
		if canon(strings.Join(got, " ")) != canon(in) {
			t.Errorf("content changed:\n in: %q\nout: %q", canon(in), canon(strings.Join(got, " ")))
		}
	}
}

func TestSplitPreservesContentQuick(t *testing.T) {
	canon := func(s string) string {
		return strings.Join(strings.Fields(s), " ")
	}
	f := func(s string) bool {
		return canon(strings.Join(Split(s), " ")) == canon(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitNoEmptySentences(t *testing.T) {
	f := func(s string) bool {
		for _, sent := range Split(s) {
			if strings.TrimSpace(sent) == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCount(t *testing.T) {
	in := "One. Two. Three."
	if got := Count(in); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := Count(""); got != 0 {
		t.Errorf("Count(\"\") = %d, want 0", got)
	}
}
