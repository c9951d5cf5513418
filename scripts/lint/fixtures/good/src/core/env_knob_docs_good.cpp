// Lint fixture (never compiled): must NOT fire env-knob-docs — the
// knob is documented in the fixture tree's README.md, and the internal
// one carries a suppression.
bool documented_flag() { return core::Env::flag("MLS_FIXTURE_DOCUMENTED", false); }
bool internal_flag() {
  return core::Env::flag("MLS_FIXTURE_INTERNAL", false);  // lint:allow(env-knob-docs)
}
