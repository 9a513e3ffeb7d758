#ifndef DBTUNE_KNOBS_KNOB_H_
#define DBTUNE_KNOBS_KNOB_H_

#include <string>
#include <vector>

namespace dbtune {

/// Domain type of a configuration knob (the paper's heterogeneity axis).
enum class KnobType {
  kContinuous,
  kInteger,
  kCategorical,
};

/// Name of a knob type ("continuous", "integer", "categorical").
const char* KnobTypeName(KnobType type);

/// One tunable DBMS configuration knob: its name, domain, and default.
///
/// Values are carried as doubles in the knob's native domain: the numeric
/// value for continuous/integer knobs, the category index for categorical
/// ones. `Encode`/`Decode` map between the native domain and the unit
/// interval used by optimizers.
class Knob {
 public:
  /// Builds a continuous knob over [min, max]; `log_scale` applies a
  /// logarithmic transform when encoding (for size-like knobs that span
  /// orders of magnitude). Requires min < max and min > 0 when log-scaled.
  static Knob Continuous(std::string name, double min, double max,
                         double default_value, bool log_scale = false);

  /// Builds an integer knob over [min, max] (inclusive).
  static Knob Integer(std::string name, int64_t min, int64_t max,
                      int64_t default_value, bool log_scale = false);

  /// Builds a categorical knob; the default is the index of the default
  /// category. Two-valued categorical knobs model booleans/switches.
  static Knob Categorical(std::string name, std::vector<std::string> categories,
                          size_t default_index);

  const std::string& name() const { return name_; }
  KnobType type() const { return type_; }
  double min() const { return min_; }
  double max() const { return max_; }
  bool log_scale() const { return log_scale_; }
  double default_value() const { return default_value_; }
  /// Categories of a categorical knob (empty otherwise).
  const std::vector<std::string>& categories() const { return categories_; }
  /// Number of categories (0 for non-categorical knobs).
  size_t num_categories() const { return categories_.size(); }

  bool is_categorical() const { return type_ == KnobType::kCategorical; }

  /// Maps a native-domain value to [0, 1].
  double Encode(double value) const;

  /// Maps a unit-interval position back to the native domain (rounds
  /// integers, snaps categorical indices).
  double Decode(double unit) const;

  /// Clamps (and rounds/snaps) a native-domain value into the legal domain.
  double Clip(double value) const;

  /// True when `value` lies in the knob's domain (after rounding for
  /// integer/categorical knobs).
  bool IsValid(double value) const;

 private:
  Knob() = default;

  /// Sets `log_scale_` and, when set, the cached log bounds.
  void SetLogScale(bool log_scale);

  std::string name_;
  KnobType type_ = KnobType::kContinuous;
  double min_ = 0.0;
  double max_ = 1.0;
  double default_value_ = 0.0;
  bool log_scale_ = false;
  // log(min) and log(max) - log(min), computed once when a log-scaled
  // knob is built; Encode/Decode read them instead of calling std::log
  // per value (same libm calls on the same inputs, so same bits).
  double log_min_ = 0.0;
  double log_range_ = 0.0;
  std::vector<std::string> categories_;
};

}  // namespace dbtune

#endif  // DBTUNE_KNOBS_KNOB_H_
