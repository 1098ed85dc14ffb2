// Evaluator for the GMDF expression language.
//
// Evaluation is dynamically typed over meta::Value restricted to
// Bool/Int/Real. Arithmetic on two Ints stays Int; any Real operand
// promotes the operation to Real. Int arithmetic wraps two's-complement
// (expr::vmops::wrap_*): + - * and unary minus keep the low 64 bits,
// INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0, so no integer
// input is undefined. Only division and modulo by zero are errors.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "expr/ast.hpp"
#include "meta/value.hpp"

namespace gmdf::expr {

/// Resolves a variable name to its current value; empty result means the
/// variable is unknown (evaluation throws EvalError).
using VarLookup = std::function<meta::Value(std::string_view)>;

/// Error raised during evaluation (unknown variable/function, type error,
/// division by zero).
class EvalError : public std::runtime_error {
public:
    explicit EvalError(const std::string& message) : std::runtime_error(message) {}
};

/// Evaluates `e` against `vars`.
[[nodiscard]] meta::Value eval(const Expr& e, const VarLookup& vars);

/// Convenience overload over a name->value map.
[[nodiscard]] meta::Value eval(const Expr& e, const std::map<std::string, meta::Value>& vars);

/// Evaluates and coerces to bool; Int/Real are truthy when non-zero.
[[nodiscard]] bool eval_bool(const Expr& e, const VarLookup& vars);

/// Names of the builtin functions (min, max, abs, clamp, floor, ceil,
/// sqrt, sin, cos, exp, log, pow, sign). Used by the type checker and the
/// C code emitter.
[[nodiscard]] bool is_builtin(std::string_view fn);

} // namespace gmdf::expr
