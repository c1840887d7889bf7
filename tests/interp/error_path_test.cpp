// Run-time checks of the interpreter.  Each faulty construct must raise
// InternalError when it executes, and must raise nothing while it sits in
// a branch that is never taken: the interpreter may prepare code ahead of
// execution, but it may not report an error for code that never runs.
#include <gtest/gtest.h>

#include "interp/interp.h"
#include "parser/parser.h"

namespace polaris {
namespace {

/// A main program that runs `body`, or skips it behind an IF on a value
/// only known at run time.
std::string program_with(const std::string& decls, const std::string& body,
                         bool executed,
                         const std::string& subprograms = "") {
  std::string src = "      program t\n" + decls +
                    "      n = " + (executed ? "1" : "0") + "\n"
                    "      j = 0\n"
                    "      if (n .gt. 0) then\n" +
                    body +
                    "      end if\n"
                    "      print *, 'done'\n"
                    "      end\n" +
                    subprograms;
  return src;
}

/// Runs `p`, expecting the InternalError whose message contains `what`.
void expect_internal_error(Program& p, const std::string& what) {
  try {
    run_program(p);
    ADD_FAILURE() << "no error; expected: " << what;
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

void expect_fires_only_when_run(const std::string& what,
                                const std::string& decls,
                                const std::string& body,
                                const std::string& subprograms = "") {
  auto taken = parse_program(program_with(decls, body, true, subprograms));
  expect_internal_error(*taken, what);

  auto skipped = parse_program(program_with(decls, body, false, subprograms));
  RunResult r;
  EXPECT_NO_THROW(r = run_program(*skipped));
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], "done");
}

/// Replaces the right-hand side of the first assignment in the main
/// program whose target is `name`.
void replace_rhs(Program& p, const std::string& name, ExprPtr rhs) {
  for (Statement* s = p.main()->stmts().first(); s; s = s->next()) {
    if (s->kind() != StmtKind::Assign) continue;
    auto* a = static_cast<AssignStmt*>(s);
    if (a->target()->name() != name) continue;
    a->rhs_slot() = std::move(rhs);
    return;
  }
  FAIL() << "no assignment to " << name;
}

TEST(InterpErrorPathTest, SubscriptOutOfDeclaredBounds) {
  expect_fires_only_when_run("array subscript out of declared bounds",
                             "      real a(3)\n", "        a(4) = 1.0\n");
}

TEST(InterpErrorPathTest, FlatIndexOutOfStorage) {
  // The formal declares 10 elements; the actual has 3.  b(5) is within
  // the declared bounds but outside the storage.
  expect_fires_only_when_run("flat array index out of storage",
                             "      real a(3)\n", "        call sub(a)\n",
                             "      subroutine sub(b)\n"
                             "      real b(10)\n"
                             "      b(5) = 1.0\n"
                             "      end\n");
}

TEST(InterpErrorPathTest, IntegerDivisionByZero) {
  expect_fires_only_when_run("integer division by zero", "",
                             "        i = 5 / j\n");
}

TEST(InterpErrorPathTest, ModByZero) {
  expect_fires_only_when_run("mod by zero", "", "        i = mod(5, j)\n");
}

TEST(InterpErrorPathTest, NegativeIntegerExponent) {
  expect_fires_only_when_run("negative integer exponent", "",
                             "        k = j - 1\n"
                             "        i = 2 ** k\n");
}

// The same checks inside compiled statements other than a store: a read
// on the right-hand side, an IF condition, a DO limit.
TEST(InterpErrorPathTest, SubscriptOutOfBoundsInRead) {
  expect_fires_only_when_run("array subscript out of declared bounds",
                             "      real a(3)\n", "        x = a(j + 4)\n");
}

TEST(InterpErrorPathTest, SubscriptOutOfBoundsInCondition) {
  expect_fires_only_when_run("array subscript out of declared bounds",
                             "      real a(3)\n",
                             "        if (a(j + 4) .gt. 0.0) then\n"
                             "          x = 1.0\n"
                             "        end if\n");
}

TEST(InterpErrorPathTest, IntegerDivisionByZeroInCondition) {
  expect_fires_only_when_run("integer division by zero", "",
                             "        if (5 / j .gt. 0) then\n"
                             "          x = 1.0\n"
                             "        end if\n");
}

TEST(InterpErrorPathTest, ModByZeroInCondition) {
  expect_fires_only_when_run("mod by zero", "",
                             "        if (mod(5, j) .gt. 0) then\n"
                             "          x = 1.0\n"
                             "        end if\n");
}

TEST(InterpErrorPathTest, NegativeIntegerExponentInCondition) {
  expect_fires_only_when_run("negative integer exponent", "",
                             "        if (2 ** (j - 1) .gt. 0) then\n"
                             "          x = 1.0\n"
                             "        end if\n");
}

TEST(InterpErrorPathTest, IntegerDivisionByZeroInDoLimit) {
  expect_fires_only_when_run("integer division by zero", "",
                             "        do i = 1, 5 / j\n"
                             "          x = 1.0\n"
                             "        end do\n");
}

TEST(InterpErrorPathTest, IntrinsicArityMismatch) {
  expect_fires_only_when_run("bad arity for intrinsic sqrt", "",
                             "        x = sqrt(4.0, 2.0)\n");
}

TEST(InterpErrorPathTest, CallToUnknownSubroutine) {
  expect_fires_only_when_run("call to unknown subroutine nosuch", "",
                             "        call nosuch(j)\n");
}

TEST(InterpErrorPathTest, UnknownIntrinsic) {
  // The parser canonicalizes intrinsic spellings, so only a rewritten IR
  // can carry an intrinsic name the interpreter does not implement: "amod"
  // is an intrinsic alias, never a canonical name.
  for (bool executed : {true, false}) {
    auto p = parse_program(
        program_with("", "        x = 1.0\n", executed));
    std::vector<ExprPtr> args;
    args.push_back(std::make_unique<RealConst>(5.0, false));
    args.push_back(std::make_unique<RealConst>(3.0, false));
    replace_rhs(*p, "x",
                std::make_unique<FuncCall>("amod", std::move(args),
                                           Type::real()));
    if (executed)
      expect_internal_error(*p, "unimplemented intrinsic amod");
    else
      EXPECT_NO_THROW(run_program(*p));
  }
}

TEST(InterpErrorPathTest, GotoToUnknownLabel) {
  // The parser rejects a GOTO to a missing label, so the GOTO is spliced
  // into the parsed IR behind the run-time IF.
  for (bool executed : {true, false}) {
    auto p = parse_program(program_with("", "        x = 1.0\n", executed));
    Statement* assign = nullptr;
    for (Statement* s = p->main()->stmts().first(); s; s = s->next())
      if (s->kind() == StmtKind::Assign &&
          static_cast<AssignStmt*>(s)->target()->name() == "x")
        assign = s;
    ASSERT_NE(assign, nullptr);
    p->main()->stmts().insert_after(assign, std::make_unique<GotoStmt>(999));
    if (executed)
      expect_internal_error(*p, "GOTO to unknown label");
    else
      EXPECT_NO_THROW(run_program(*p));
  }
}

TEST(InterpErrorPathTest, StatementLimitRaisesAtTheSameCount) {
  const std::string src =
      "      program t\n"
      "      s = 0.0\n"
      "      do i = 1, 10\n"
      "        s = s + i\n"
      "      end do\n"
      "      print *, s\n"
      "      end\n";
  auto p = parse_program(src);
  const std::uint64_t executed = run_program(*p).statements;
  // The first assignment, the DO, ten executions of the body and the
  // PRINT (the ENDDO ends each iteration without being counted).
  EXPECT_EQ(executed, 13u);

  Interpreter exact(*p);
  exact.set_statement_limit(executed);
  EXPECT_NO_THROW(exact.run());

  Interpreter one_short(*p);
  one_short.set_statement_limit(executed - 1);
  EXPECT_THROW(one_short.run(), UserError);
}

}  // namespace
}  // namespace polaris
