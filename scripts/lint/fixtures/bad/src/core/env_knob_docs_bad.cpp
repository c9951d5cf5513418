// Lint fixture (never compiled): MUST fire env-knob-docs — this knob is
// read in src/ but the fixture tree's README.md never names it.
int undocumented_threads() {
  return static_cast<int>(core::Env::integer("MLS_FIXTURE_UNDOCUMENTED", 1));
}
