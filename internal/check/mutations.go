package check

import "bulk/internal/mutate"

// Mutation pairs one seeded protocol mutation with the directed target
// whose schedule space contains a killing interleaving, and the budget the
// explorer needs to find it.
type Mutation struct {
	ID     mutate.ID
	Target Target
	Budget Budget
}

// Catalog returns every seeded mutation with its directed kill target.
// Each entry is a claim the tests enforce: ExploreParallel(Target,
// Of(ID), Budget, w) finds an oracle violation at every worker count w,
// while the unmutated target explores clean.
func Catalog() []Mutation {
	b := Budget{MaxSchedules: 4_000, Depth: 12}
	deep := Budget{MaxSchedules: 8_000, Depth: 16}
	return []Mutation{
		{ID: mutate.DropWRTerm, Target: wrTermTarget(), Budget: b},
		{ID: mutate.DropWWTerm, Target: wwTermTarget(), Budget: b},
		{ID: mutate.SkipCleanInvalidation, Target: cleanInvTarget(), Budget: b},
		{ID: mutate.DropReadOnHit, Target: readHitTarget(), Budget: b},
		{ID: mutate.SkipWordMerge, Target: wordMergeTarget(), Budget: b},
		{ID: mutate.SkipSetRestriction, Target: setRestrictionTarget(), Budget: deep},
		{ID: mutate.SkipSpilledDisambiguation, Target: spillTarget(), Budget: deep},
		{ID: mutate.DropShadowWrite, Target: shadowTarget(), Budget: b},
		{ID: mutate.SkipSquashCascade, Target: cascadeTarget(), Budget: deep},
		{ID: mutate.SkipStalledRestart, Target: stalledTarget(), Budget: b},
	}
}
