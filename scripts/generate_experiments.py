"""Regenerate every figure at full scale and dump the report to stdout.

Run:  python scripts/generate_experiments.py > experiments_full.txt

One process so the engine's memory cache is shared across figures (the Fig. 1
baseline runs are the Fig. 9/10 denominators).  Takes tens of minutes on
one core.
"""

import time

import repro.experiments as ex


def section(title, fn):
    t0 = time.time()
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}", flush=True)
    try:
        fn()
    except Exception as err:  # keep going; report the failure
        print(f"!! FAILED: {err!r}")
    print(f"[{time.time() - t0:.0f}s]", flush=True)


def main():
    t0 = time.time()
    section("Fig. 3 (FMA microbenchmark, 3 architectures)",
            lambda: print(ex.fig03_fma_imbalance.format_result(
                ex.fig03_fma_imbalance.run(fmas=1024))))
    section("Fig. 8 (imbalance scaling)",
            lambda: print(ex.fig08_imbalance_scaling.format_result(
                ex.fig08_imbalance_scaling.run(base_fmas=128))))
    section("Sec. V (CU validation)",
            lambda: print(ex.cu_validation.format_result(
                ex.cu_validation.run(insts=256))))
    section("Fig. 13 (area/power)",
            lambda: print(ex.fig13_area_power.format_result(ex.fig13_area_power.run())))
    section("Fig. 1 (fully-connected speedup, all 112 apps)",
            lambda: print(ex.fig01_partitioning.format_result(ex.fig01_partitioning.run())))
    section("Fig. 9 (Shuffle+RBA vs FC, all 112 apps)",
            lambda: print(ex.fig09_all_apps.format_result(ex.fig09_all_apps.run())))
    section("Headline (abstract numbers)",
            lambda: print(ex.headline.format_result(ex.headline.run())))
    section("Fig. 10 (sensitive apps)",
            lambda: print(ex.fig10_sensitive.format_result(ex.fig10_sensitive.run())))
    section("Fig. 11 (RBA on the fully-connected SM)",
            lambda: print(ex.fig11_fc_rba.format_result(ex.fig11_fc_rba.run())))
    section("Fig. 12 (CU scaling)",
            lambda: print(ex.fig12_cu_scaling.format_result(ex.fig12_cu_scaling.run())))
    section("Fig. 14 (RF utilization)",
            lambda: print(ex.fig14_rf_utilization.format_result(ex.fig14_rf_utilization.run())))
    section("Fig. 15 (compressed TPC-H, 22 queries)",
            lambda: print(ex.fig15_tpch_compressed.format_result(ex.fig15_tpch_compressed.run())))
    section("Fig. 16 (uncompressed TPC-H, 22 queries)",
            lambda: print(ex.fig16_tpch_uncompressed.format_result(ex.fig16_tpch_uncompressed.run())))
    section("Fig. 17 (issue CoV, 22 queries)",
            lambda: print(ex.fig17_issue_cov.format_result(ex.fig17_issue_cov.run())))
    section("Fig. 18 (SM scaling)",
            lambda: print(ex.fig18_sm_scaling.format_result(ex.fig18_sm_scaling.run())))
    section("Sec. VI-B4 (RBA score latency)",
            lambda: print(ex.rba_latency.format_result(ex.rba_latency.run())))
    section("Sec. VI-B5 (RBA bank scaling)",
            lambda: print(ex.rba_banks.format_result(ex.rba_banks.run())))
    section("Sec. IV-B3 (hash table size)",
            lambda: print(ex.hash_table_size.format_result(ex.hash_table_size.run())))
    section("Ablation (bank mapping)",
            lambda: print(ex.ablation_bank_mapping.format_result(ex.ablation_bank_mapping.run())))
    section("Ablation (baseline scheduler)",
            lambda: print(ex.ablation_baseline_scheduler.format_result(
                ex.ablation_baseline_scheduler.run())))
    section("Extension (sub-core granularity)",
            lambda: print(ex.subcore_granularity.format_result(ex.subcore_granularity.run())))
    section("Extension (work stealing)",
            lambda: print(ex.work_stealing_study.format_result(ex.work_stealing_study.run())))
    cached = ex.get_engine().memory_cache_size()
    print(f"\nTOTAL: {time.time() - t0:.0f}s, cache={cached} entries")


if __name__ == "__main__":
    main()
