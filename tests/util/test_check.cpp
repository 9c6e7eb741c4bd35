// Semantics of util::require / util::ensure: a failing check throws its
// typed exception with "file:line: message", whichever form the message
// takes (literal, std::string temporary, or a concatenation built at the
// call site), and a passing check throws nothing.
#include "rainshine/util/check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rainshine::util {
namespace {

/// The what() text a check raised at `line` of this file must carry.
std::string expected_what(int line, const std::string& message) {
  return std::string(__FILE__) + ":" + std::to_string(line) + ": " + message;
}

/// Runs `fn`, which must throw `Error`, and returns its what().
template <typename Error, typename Fn>
std::string what_of(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  } catch (...) {
    ADD_FAILURE() << "threw an exception of the wrong type";
    return {};
  }
  ADD_FAILURE() << "did not throw";
  return {};
}

TEST(Check, PassingChecksDoNotThrow) {
  const std::string name = "x";
  EXPECT_NO_THROW(require(true, "a literal message longer than the SSO buffer"));
  EXPECT_NO_THROW(require(true, std::string("a temporary")));
  EXPECT_NO_THROW(require(true, "concatenated: " + name));
  EXPECT_NO_THROW(ensure(true, "a literal message longer than the SSO buffer"));
  EXPECT_NO_THROW(ensure(true, std::string("a temporary")));
  EXPECT_NO_THROW(ensure(true, "concatenated: " + name));
}

// Each check sits on its own line, outside any gtest macro (a macro would
// report its first line), so `line` names the call site exactly.
TEST(Check, RequireThrowsPreconditionErrorWithCallSite) {
  const std::string name = "power_kw";
  int line = __LINE__ + 1;
  std::string what = what_of<precondition_error>([] { require(false, "rack id out of range"); });
  EXPECT_EQ(what, expected_what(line, "rack id out of range"));

  line = __LINE__ + 1;
  what = what_of<precondition_error>([] { require(false, std::string("a temporary")); });
  EXPECT_EQ(what, expected_what(line, "a temporary"));

  line = __LINE__ + 1;
  what = what_of<precondition_error>([&] { require(false, "no such column: " + name); });
  EXPECT_EQ(what, expected_what(line, "no such column: power_kw"));
}

TEST(Check, EnsureThrowsInvariantErrorWithCallSite) {
  const std::string cell = "12x";
  int line = __LINE__ + 1;
  std::string what = what_of<invariant_error>([] { ensure(false, "invariant broken"); });
  EXPECT_EQ(what, expected_what(line, "invariant broken"));

  line = __LINE__ + 1;
  what = what_of<invariant_error>([] { ensure(false, std::string("a temporary")); });
  EXPECT_EQ(what, expected_what(line, "a temporary"));

  line = __LINE__ + 1;
  what = what_of<invariant_error>([&] { ensure(false, "unvalidated ordinal cell: " + cell); });
  EXPECT_EQ(what, expected_what(line, "unvalidated ordinal cell: 12x"));
}

TEST(Check, ErrorTypesKeepTheirStandardBases) {
  // Callers catch std::invalid_argument / std::logic_error too; the two
  // kinds must stay distinguishable.
  EXPECT_THROW(require(false, "m"), std::invalid_argument);
  EXPECT_THROW(ensure(false, "m"), std::logic_error);
  try {
    ensure(false, "m");
  } catch (const precondition_error&) {
    ADD_FAILURE() << "invariant_error must not be a precondition_error";
  } catch (const invariant_error&) {
  }
}

}  // namespace
}  // namespace rainshine::util
