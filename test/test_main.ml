let () =
  Alcotest.run "sdds"
    [
      ("util", Test_util.suite);
      ("xml", Test_xml.suite);
      ("xpath", Test_xpath.suite);
      ("crypto", Test_crypto.suite);
      ("core", Test_core.suite);
      ("codec", Test_core.codec_suite);
      ("index", Test_index.suite);
      ("soe", Test_soe.suite);
      ("dsp", Test_dsp.suite);
      ("baseline", Test_baseline.suite);
      ("containment", Test_containment.suite);
      ("guard", Test_guard.suite);
      ("proxy-protected", Test_dsp.protected_suite);
      ("revocation", Test_dsp.revocation_suite);
      ("authority", Test_dsp.authority_suite);
      ("rollback", Test_dsp.rollback_suite);
      ("persistence", Test_dsp.persistence_suite);
      ("fuzz", Test_fuzz.suite);
      ("stream-view", Test_stream_view.suite);
      ("remote-card", Test_remote_card.suite);
      ("properties", Test_properties.suite);
      ("cost-extra", Test_soe.cost_suite_extra);
      ("guard-wire", Test_guard.wire_suite);
      ("protected-accounting", Test_dsp.protected_accounting_suite);
      ("session", Test_session.suite);
      ("analysis", Test_analysis.suite);
      ("fault", Test_fault.suite);
      ("fleet", Test_fleet.suite);
      ("obs", Test_obs.suite);
      ("dissem", Test_dissem.suite);
      ("protocol-check", Test_protocol.suite);
      ("card", Test_card.suite);
    ]
