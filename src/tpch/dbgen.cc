#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/zipf.h"
#include "stats/table_stats.h"
#include "tpch/schema.h"
#include "types/date.h"

namespace qprog {
namespace tpch {

namespace {

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

const char* kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// Region of each nation, per the dbgen mapping.
const int kNationRegion[] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                             4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipmodes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                            "FOB"};
const char* kInstructions[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kTypeSyllable1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE",
                                "ECONOMY", "PROMO"};
const char* kTypeSyllable2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                                "BRUSHED"};
const char* kTypeSyllable3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainerSyllable1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainerSyllable2[] = {"CASE", "BOX", "BAG", "JAR", "PKG",
                                     "PACK", "CAN", "DRUM"};
const char* kColors[] = {"almond",    "antique",   "aquamarine", "azure",
                         "beige",     "bisque",    "black",      "blanched",
                         "blue",      "blush",     "brown",      "burlywood",
                         "burnished", "chartreuse", "chiffon",   "chocolate",
                         "coral",     "cornflower", "cornsilk",  "cream",
                         "cyan",      "dark",      "deep",       "dim",
                         "dodger",    "drab",      "firebrick",  "floral",
                         "forest",    "frosted",   "gainsboro",  "ghost",
                         "goldenrod", "green",     "grey",       "honeydew",
                         "hot",       "hotpink",   "indian",     "ivory",
                         "khaki",     "lace",      "lavender",   "lawn",
                         "lemon",     "light",     "lime",       "linen"};
const char* kCommentWords[] = {
    "furiously", "quickly",  "carefully", "express", "pending",  "final",
    "ironic",    "regular",  "unusual",   "bold",    "blithely", "daring",
    "accounts",  "deposits", "packages",  "theodolites", "instructions",
    "requests",  "foxes",    "platelets", "pinto",   "beans",    "asymptotes",
    "dependencies", "waters", "excuses",  "sauternes", "courts",  "ideas"};

constexpr int64_t kOrdersPerCustomer = 10;
constexpr int64_t kPartsuppPerPart = 4;

class TpchGenerator {
 public:
  TpchGenerator(const TpchConfig& config, Database* db)
      : config_(config),
        db_(db),
        rng_(config.seed),
        suppliers_(ExpectedSuppliers(config.scale_factor)),
        parts_(ExpectedParts(config.scale_factor)),
        customers_(ExpectedCustomers(config.scale_factor)),
        orders_(ExpectedOrders(config.scale_factor)),
        part_zipf_(parts_, config.z),
        supp_zipf_(suppliers_, config.z),
        cust_zipf_(customers_, config.z),
        nation_zipf_(25, config.z),
        qty_zipf_(50, config.z) {}

  Status Run() {
    QPROG_RETURN_IF_ERROR(GenRegion());
    QPROG_RETURN_IF_ERROR(GenNation());
    QPROG_RETURN_IF_ERROR(GenSupplier());
    QPROG_RETURN_IF_ERROR(GenPart());
    QPROG_RETURN_IF_ERROR(GenPartsupp());
    QPROG_RETURN_IF_ERROR(GenCustomer());
    QPROG_RETURN_IF_ERROR(GenOrdersAndLineitem());
    if (config_.build_indexes) QPROG_RETURN_IF_ERROR(BuildIndexes());
    if (config_.collect_stats) CollectStats();
    return OkStatus();
  }

 private:
  std::string Comment(size_t min_words, size_t max_words) {
    size_t n = min_words + rng_.Uniform(max_words - min_words + 1);
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out += " ";
      out += kCommentWords[rng_.Uniform(std::size(kCommentWords))];
    }
    // A small fraction of comments carry the phrases Q13 and Q16 filter on.
    if (rng_.Bernoulli(0.01)) out += " special requests";
    if (rng_.Bernoulli(0.005)) out += " Customer Complaints";
    return out;
  }

  std::string Phone(int64_t nationkey) {
    return StringPrintf("%d-%03d-%03d-%04d", static_cast<int>(10 + nationkey),
                        static_cast<int>(rng_.UniformInt(100, 999)),
                        static_cast<int>(rng_.UniformInt(100, 999)),
                        static_cast<int>(rng_.UniformInt(1000, 9999)));
  }

  // A VARCHAR cell of the row being generated: Values only view bytes, so
  // the string is kept until Append has copied the row into its table.
  Value Str(std::string s) {
    return Value::String(row_strings_.emplace_back(std::move(s)));
  }

  void Append(Table* table, const Row& row) {
    table->AppendRow(row);
    row_strings_.clear();
  }

  // zipf-skewed choice in [0, n): rank drawn from the distribution, mapped
  // through a fixed pseudo-random permutation-ish multiplier so that the
  // popular keys are spread across the key domain (as the skewed dbgen does).
  int64_t SkewedKey(const ZipfDistribution& zipf, int64_t n) {
    uint64_t rank = zipf.Sample(&rng_);
    // Affine map with a multiplier coprime to n spreads ranks over the
    // domain deterministically.
    return static_cast<int64_t>((rank * 2654435761ULL + 40503ULL) %
                                static_cast<uint64_t>(n));
  }

  Status GenRegion() {
    Table table("region", RegionSchema());
    for (int64_t i = 0; i < 5; ++i) {
      Append(&table, {Value::Int64(i), Value::String(kRegions[i]),
                      Str(Comment(3, 8))});
    }
    return db_->AddTable(std::move(table)).status();
  }

  Status GenNation() {
    Table table("nation", NationSchema());
    for (int64_t i = 0; i < 25; ++i) {
      Append(&table, {Value::Int64(i), Value::String(kNations[i]),
                      Value::Int64(kNationRegion[i]), Str(Comment(3, 8))});
    }
    return db_->AddTable(std::move(table)).status();
  }

  Status GenSupplier() {
    Table table("supplier", SupplierSchema());
    table.Reserve(suppliers_);
    for (int64_t i = 1; i <= static_cast<int64_t>(suppliers_); ++i) {
      int64_t nation = SkewedKey(nation_zipf_, 25);
      Append(&table,
             {Value::Int64(i),
              Str(StringPrintf("Supplier#%09lld", static_cast<long long>(i))),
              Str(Comment(2, 4)), Value::Int64(nation), Str(Phone(nation)),
              Value::Double(rng_.UniformDouble(-999.99, 9999.99)),
              Str(Comment(5, 12))});
    }
    return db_->AddTable(std::move(table)).status();
  }

  Status GenPart() {
    Table table("part", PartSchema());
    table.Reserve(parts_);
    for (int64_t i = 1; i <= static_cast<int64_t>(parts_); ++i) {
      int m = static_cast<int>(rng_.UniformInt(1, 5));
      int nbrand = static_cast<int>(rng_.UniformInt(1, 5));
      std::string name =
          std::string(kColors[rng_.Uniform(std::size(kColors))]) + " " +
          kColors[rng_.Uniform(std::size(kColors))];
      std::string type =
          std::string(kTypeSyllable1[rng_.Uniform(6)]) + " " +
          kTypeSyllable2[rng_.Uniform(5)] + " " + kTypeSyllable3[rng_.Uniform(5)];
      std::string container =
          std::string(kContainerSyllable1[rng_.Uniform(5)]) + " " +
          kContainerSyllable2[rng_.Uniform(8)];
      Append(&table,
             {Value::Int64(i), Value::String(name),
              Str(StringPrintf("Manufacturer#%d", m)),
              Str(StringPrintf("Brand#%d%d", m, nbrand)), Value::String(type),
              Value::Int64(1 + static_cast<int64_t>(qty_zipf_.Sample(&rng_))),
              Value::String(container),
              Value::Double(900.0 + static_cast<double>(i % 1000) +
                            0.01 * static_cast<double>(i % 100)),
              Str(Comment(2, 6))});
    }
    return db_->AddTable(std::move(table)).status();
  }

  Status GenPartsupp() {
    Table table("partsupp", PartsuppSchema());
    table.Reserve(parts_ * kPartsuppPerPart);
    for (int64_t pk = 1; pk <= static_cast<int64_t>(parts_); ++pk) {
      for (int64_t j = 0; j < kPartsuppPerPart; ++j) {
        int64_t sk = 1 + SkewedKey(supp_zipf_, static_cast<int64_t>(suppliers_));
        Append(&table, {Value::Int64(pk), Value::Int64(sk),
                        Value::Int64(rng_.UniformInt(1, 9999)),
                        Value::Double(rng_.UniformDouble(1.0, 1000.0)),
                        Str(Comment(10, 20))});
      }
    }
    return db_->AddTable(std::move(table)).status();
  }

  Status GenCustomer() {
    Table table("customer", CustomerSchema());
    table.Reserve(customers_);
    for (int64_t i = 1; i <= static_cast<int64_t>(customers_); ++i) {
      int64_t nation = SkewedKey(nation_zipf_, 25);
      Append(&table,
             {Value::Int64(i),
              Str(StringPrintf("Customer#%09lld", static_cast<long long>(i))),
              Str(Comment(2, 4)), Value::Int64(nation), Str(Phone(nation)),
              Value::Double(rng_.UniformDouble(-999.99, 9999.99)),
              Value::String(kSegments[rng_.Uniform(5)]),
              Str(Comment(6, 16))});
    }
    return db_->AddTable(std::move(table)).status();
  }

  Status GenOrdersAndLineitem() {
    Table orders("orders", OrdersSchema());
    Table lineitem("lineitem", LineitemSchema());
    orders.Reserve(orders_);
    lineitem.Reserve(orders_ * 4);

    const int32_t start = DaysFromCivil(1992, 1, 1);
    const int32_t end = DaysFromCivil(1998, 8, 2);
    const char* statuses = "OFP";

    for (int64_t ok = 1; ok <= static_cast<int64_t>(orders_); ++ok) {
      int64_t ck = 1 + SkewedKey(cust_zipf_, static_cast<int64_t>(customers_));
      // Order dates run to 1998-08-02 (dbgen); late orders ship after the
      // Q1 cutoff of 1998-09-02, giving that filter its ~98% selectivity.
      int32_t odate = static_cast<int32_t>(rng_.UniformInt(start, end));
      int64_t nlines = rng_.UniformInt(1, 7);
      double total = 0;
      std::string status(1, statuses[rng_.Uniform(3)]);
      for (int64_t ln = 1; ln <= nlines; ++ln) {
        int64_t pk = 1 + SkewedKey(part_zipf_, static_cast<int64_t>(parts_));
        int64_t sk = 1 + SkewedKey(supp_zipf_, static_cast<int64_t>(suppliers_));
        double qty = 1.0 + static_cast<double>(qty_zipf_.Sample(&rng_));
        double price = qty * rng_.UniformDouble(900.0, 2000.0);
        double discount = 0.01 * static_cast<double>(rng_.UniformInt(0, 10));
        double tax = 0.01 * static_cast<double>(rng_.UniformInt(0, 8));
        int32_t sdate = odate + static_cast<int32_t>(rng_.UniformInt(1, 121));
        int32_t cdate = odate + static_cast<int32_t>(rng_.UniformInt(30, 90));
        int32_t rdate = sdate + static_cast<int32_t>(rng_.UniformInt(1, 30));
        const char* rflag =
            rdate <= DaysFromCivil(1995, 6, 17) ? (rng_.Bernoulli(0.5) ? "R"
                                                                       : "A")
                                                : "N";
        const char* lstatus = sdate > DaysFromCivil(1995, 6, 17) ? "O" : "F";
        total += price * (1 - discount) * (1 + tax);
        Append(&lineitem,
               {Value::Int64(ok), Value::Int64(pk), Value::Int64(sk),
                Value::Int64(ln), Value::Double(qty), Value::Double(price),
                Value::Double(discount), Value::Double(tax),
                Value::String(rflag), Value::String(lstatus),
                Value::Date(sdate), Value::Date(cdate), Value::Date(rdate),
                Value::String(kInstructions[rng_.Uniform(4)]),
                Value::String(kShipmodes[rng_.Uniform(7)]),
                Str(Comment(4, 10))});
      }
      Append(&orders,
             {Value::Int64(ok), Value::Int64(ck), Value::String(status),
              Value::Double(total), Value::Date(odate),
              Value::String(kPriorities[rng_.Uniform(5)]),
              Str(StringPrintf("Clerk#%09d",
                               static_cast<int>(rng_.UniformInt(
                                   1, std::max<int64_t>(1, orders_ / 1000))))),
              Value::Int64(0), Str(Comment(6, 16))});
    }
    QPROG_RETURN_IF_ERROR(db_->AddTable(std::move(orders)).status());
    return db_->AddTable(std::move(lineitem)).status();
  }

  Status BuildIndexes() {
    // Primary-key indexes plus the foreign-key index INL plans probe.
    const std::pair<const char*, const char*> specs[] = {
        {"region", "r_regionkey"},   {"nation", "n_nationkey"},
        {"supplier", "s_suppkey"},   {"part", "p_partkey"},
        {"customer", "c_custkey"},   {"orders", "o_orderkey"},
        {"lineitem", "l_orderkey"},  {"partsupp", "ps_partkey"},
        {"lineitem", "l_partkey"},
    };
    for (const auto& [table, column] : specs) {
      QPROG_RETURN_IF_ERROR(db_->BuildOrderedIndex(table, column).status());
    }
    return OkStatus();
  }

  void CollectStats() {
    HistogramStatisticsGenerator gen(config_.histogram_buckets);
    for (const std::string& name : db_->TableNames()) {
      db_->SetStats(name, gen.Generate(*db_->GetTable(name)));
    }
  }

  const TpchConfig& config_;
  Database* db_;
  Rng rng_;
  uint64_t suppliers_;
  uint64_t parts_;
  uint64_t customers_;
  uint64_t orders_;
  ZipfDistribution part_zipf_;
  ZipfDistribution supp_zipf_;
  ZipfDistribution cust_zipf_;
  ZipfDistribution nation_zipf_;
  ZipfDistribution qty_zipf_;
  std::deque<std::string> row_strings_;  // deque: elements never move
};

}  // namespace

uint64_t ExpectedSuppliers(double sf) {
  return std::max<uint64_t>(10, static_cast<uint64_t>(10000 * sf));
}
uint64_t ExpectedParts(double sf) {
  return std::max<uint64_t>(200, static_cast<uint64_t>(200000 * sf));
}
uint64_t ExpectedCustomers(double sf) {
  return std::max<uint64_t>(150, static_cast<uint64_t>(150000 * sf));
}
uint64_t ExpectedOrders(double sf) {
  return ExpectedCustomers(sf) * kOrdersPerCustomer;
}

Status GenerateTpch(const TpchConfig& config, Database* db) {
  if (config.scale_factor <= 0) {
    return InvalidArgument("scale_factor must be positive");
  }
  if (config.z < 0) {
    return InvalidArgument("z must be non-negative");
  }
  TpchGenerator gen(config, db);
  return gen.Run();
}

}  // namespace tpch
}  // namespace qprog
