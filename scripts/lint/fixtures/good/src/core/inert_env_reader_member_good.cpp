// Lint fixture (never compiled): must NOT fire inert-env-reader — a
// bare from_env() call from a sibling member in the defining file is a
// call site.
struct FixtureOptions {
  static FixtureOptions from_env();
  static FixtureOptions current();
};
FixtureOptions FixtureOptions::from_env() { return {}; }
FixtureOptions FixtureOptions::current() { return from_env(); }
