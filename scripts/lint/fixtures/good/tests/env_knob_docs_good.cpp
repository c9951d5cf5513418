// Lint fixture (never compiled): must NOT fire env-knob-docs — a knob
// only a test sets still counts as used for the README's table, and
// literals outside src/ need no README entry.
void arm_chaos() { core::Env::set("MLS_FIXTURE_TEST_ONLY", "7"); }
void probe() { core::Env::set("MLS_FIXTURE_TEST_LOCAL", "1"); }
