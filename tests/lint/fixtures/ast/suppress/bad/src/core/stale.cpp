// Bad: three broken suppressions — stale (nothing triggers on that line),
// reasonless, and unknown rule id.
namespace mini {

// lint-contract: allow(rng-flow) -- stale: the engine construction moved away
int nothing_here() { return 7; }

// lint-contract: allow(billing-exact-sum)
double reasonless(double x) { return x; }

// lint-contract: allow(no-such-rule) -- typo in the rule id
int typod() { return 0; }

}  // namespace mini
