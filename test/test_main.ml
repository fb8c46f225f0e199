let () =
  Alcotest.run "reitman79"
    [ Test_support.suite; Test_lattice.suite; Test_lang.suite; Test_paper.suite;
      Test_cfm.suite; Test_logic.suite; Test_exec.suite; Test_flow_sensitive.suite;
      Test_arrays.suite; Test_declassify.suite; Test_corpus.suite;
      Test_properties.suite; Test_analysis.suite; Test_cert.suite;
      Test_pipeline.suite; Test_store.suite; Test_modsys.suite;
      Test_dataflow.suite; Test_fuzz.suite; Test_server.suite; Test_figure2.suite;
      Test_frontend.suite ]
