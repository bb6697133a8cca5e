// Package similarity implements the string- and set-similarity substrate of
// the entity-resolution framework: set measures over token sets (Jaccard,
// Dice, overlap, cosine), character edit measures (Levenshtein, Damerau,
// Jaro, Jaro-Winkler), q-gram similarity, hybrid token-level measures
// (Monge-Elkan) and weighted vector cosine for TF-IDF models.
//
// All measures return values in [0, 1] with 1 meaning identical, so they
// compose freely in matchers, meta-blocking edge weights and progressive
// schedulers.
package similarity

import "entityres/internal/token"

// Jaccard returns |a∩b| / |a∪b|; 1 when both sets are empty.
func Jaccard(a, b token.Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := a.IntersectionSize(b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Dice returns 2|a∩b| / (|a|+|b|); 1 when both sets are empty.
func Dice(a, b token.Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	den := len(a) + len(b)
	if den == 0 {
		return 0
	}
	return 2 * float64(a.IntersectionSize(b)) / float64(den)
}

// Overlap returns |a∩b| / min(|a|,|b|); 1 when both sets are empty, 0 when
// exactly one is empty.
func Overlap(a, b token.Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	m := min(len(a), len(b))
	if m == 0 {
		return 0
	}
	return float64(a.IntersectionSize(b)) / float64(m)
}

// CosineSets returns |a∩b| / √(|a|·|b|), the set (binary-vector) cosine.
func CosineSets(a, b token.Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(a.IntersectionSize(b)) / sqrtProduct(len(a), len(b))
}

// JaccardSorted computes Jaccard over two ascending-sorted token slices
// by linear merge, without allocating: the matcher's hot path, which
// tokenizes each record once per resolve call and compares the rows.
// Duplicate tokens within one slice must already be removed; the result is
// then exactly Jaccard over the corresponding sets.
func JaccardSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := IntersectSortedSize(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// OverlapSorted is Overlap over two ascending-sorted, duplicate-free token
// slices, by linear merge and without allocating.
func OverlapSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	m := min(len(a), len(b))
	if m == 0 {
		return 0
	}
	return float64(IntersectSortedSize(a, b)) / float64(m)
}

// IntersectSortedSize returns the intersection size of two ascending-sorted
// deduplicated slices by linear merge.
func IntersectSortedSize(a, b []string) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func sqrtProduct(a, b int) float64 {
	// Computed via float64 to avoid overflow for large set sizes.
	x := float64(a) * float64(b)
	// Newton iteration is overkill; math.Sqrt is fine, but keep the import
	// surface minimal in this file.
	return sqrt(x)
}
