package textproc

import "testing"

var benchSentence = "The store operates from 9 AM to 5 PM, from Sunday to Saturday, and employees receive 14 days of paid annual leave per year."

func BenchmarkNormalize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Normalize(benchSentence)
	}
}

func BenchmarkContentWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ContentWords(benchSentence)
	}
}

// BenchmarkStem stems words that end in each Porter step's rules, and
// words the stemmer returns unchanged.
func BenchmarkStem(b *testing.B) {
	for _, c := range []struct {
		name  string
		words []string
	}{
		{"step1", []string{"caresses", "ponies", "hopping", "agreed", "conflated", "happy"}},
		{"step2", []string{"relational", "conditional", "digitizer", "operator", "feudalism", "hopefulness", "sensibiliti"}},
		{"step3", []string{"triplicate", "formative", "formalize", "electrical", "goodness"}},
		{"step4", []string{"revival", "allowance", "airliner", "replacement", "adoption", "homologous"}},
		{"step5", []string{"probate", "cease", "controll", "roll"}},
		{"handbook", []string{"employees", "entitled", "operational", "annual", "leave"}},
		{"unchanged", []string{"of", "9:30", "14", "500k"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Stem(c.words[i%len(c.words)])
			}
		})
	}
}

func BenchmarkExtractQuantities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ExtractQuantities(benchSentence)
	}
}

func BenchmarkExtractFeatures(b *testing.B) {
	claim := "The working hours are 9 AM to 5 PM, and the store is open from Monday to Friday."
	for i := 0; i < b.N; i++ {
		ExtractFeatures(claim, benchSentence)
	}
}
